package dpl_test

import (
	"fmt"
	"strings"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
	"mbd/internal/dpl/verify"
)

// The verifier's effect recovery as it stood before the abstract
// walker, with its own lattice and its reset of the whole stack at
// every jump target. It is the oracle for TestVerifyMatchesReference,
// which allows only one kind of disagreement: an honest artifact the
// reference wrongly rejected.

// refVerifier holds the state the reference recoverEffects reads.
type refVerifier struct {
	cp   *dpl.CompiledProgram
	res  *verify.Result
	fail func(code, msg string, args ...any)

	hosts  map[string]bool
	reads  map[string]bool
	writes map[string]bool
}

// refRecover runs the reference effect recovery over cp, which must
// have passed structural verification, and returns its DPL014
// diagnostics and recovered effects.
func refRecover(cp *dpl.CompiledProgram) *verify.Result {
	res := &verify.Result{}
	v := &refVerifier{cp: cp, res: res, fail: func(code, msg string, args ...any) {
		res.Diags = append(res.Diags, dpl.Diagnostic{Code: code, Sev: dpl.SevError, Msg: fmt.Sprintf(msg, args...)})
	}}
	v.recoverEffects()
	return res
}

// eachBlock visits the init block and every function body.
func (v *refVerifier) eachBlock(f func(name string, code []dpl.Instr, nLocals int)) {
	f("<init>", v.cp.Object.InitCode, 0)
	for _, fn := range v.cp.Object.Funcs {
		f(fn.Name, fn.Code, fn.NumLocals)
	}
}

// Abstract values for effect recovery: an exactly known constant, a
// known constant string head (under concatenation), or unknown.
type absKind uint8

const (
	absUnknown absKind = iota
	absExact
	absHead
)

type absVal struct {
	kind absKind
	v    dpl.Value // absExact
	head string    // absHead
}

// concat mirrors the AST inference's constant string head
// (effects_ref_test.go) over compiled code: the recovered head of l+r
// when l is known.
func concat(l, r absVal) absVal {
	if l.kind == absExact {
		ls, ok := l.v.AsString()
		if !ok {
			return absVal{}
		}
		switch r.kind {
		case absExact:
			if rs, ok := r.v.AsString(); ok {
				return absVal{kind: absExact, v: dpl.Str(ls + rs)}
			}
			return absVal{kind: absHead, head: ls}
		case absHead:
			return absVal{kind: absHead, head: ls + r.head}
		default:
			return absVal{kind: absHead, head: ls}
		}
	}
	if l.kind == absHead {
		return absVal{kind: absHead, head: l.head}
	}
	return absVal{}
}

// oidPrefix converts an abstract OID argument to the effect prefix it
// proves, mirroring the AST inference's OID prefix rule
// (effects_ref_test.go): exact strings fold whole, partial heads keep
// complete dotted components, everything else is the wildcard.
func oidPrefix(a absVal) string {
	switch a.kind {
	case absExact:
		if s, ok := a.v.AsString(); ok {
			return strings.TrimSuffix(s, ".")
		}
		return analysis.Wildcard
	case absHead:
		if i := strings.LastIndex(a.head, "."); i > 0 {
			return a.head[:i]
		}
		return analysis.Wildcard
	default:
		return analysis.Wildcard
	}
}

// recoverEffects (the reference) walks every block tracking constant values through the
// stack and locals (per basic block, forgetting state at jump targets,
// exactly like the optimizer's propagation pass) and checks each host
// call against the declared verdict (DPL014).
func (v *refVerifier) recoverEffects() {
	v.hosts, v.reads, v.writes = map[string]bool{}, map[string]bool{}, map[string]bool{}
	declHosts := map[string]bool{}
	for _, h := range v.cp.Verdict.Hosts {
		declHosts[h] = true
	}
	covered := func(declared []string, oid string) bool {
		for _, d := range declared {
			if analysis.OIDCovers(d, oid) {
				return true
			}
		}
		return false
	}
	c := v.cp.Object
	v.eachBlock(func(name string, code []dpl.Instr, nLocals int) {
		locals := make([]absVal, nLocals)
		var stack []absVal
		tgt := make([]bool, len(code)+1)
		for _, in := range code {
			switch in.Op {
			case dpl.OpJump, dpl.OpJumpFalse, dpl.OpJFKeep, dpl.OpJTKeep, dpl.OpBinJumpFalse:
				tgt[in.A] = true
			}
		}
		reset := func() {
			for i := range locals {
				locals[i] = absVal{}
			}
			stack = stack[:0]
		}
		push := func(a absVal) { stack = append(stack, a) }
		pop := func(n int) []absVal {
			if len(stack) < n {
				// Unreachable after structural verification; drop
				// tracking rather than guessing.
				stack = stack[:0]
				return make([]absVal, n)
			}
			out := stack[len(stack)-n:]
			popped := make([]absVal, n)
			copy(popped, out)
			stack = stack[:len(stack)-n]
			return popped
		}
		for ip := 0; ip < len(code); ip++ {
			if tgt[ip] {
				reset()
			}
			in := code[ip]
			switch in.Op {
			case dpl.OpConst:
				push(absVal{kind: absExact, v: c.Consts[in.A]})
			case dpl.OpNil:
				push(absVal{kind: absExact})
			case dpl.OpTrue:
				push(absVal{kind: absExact, v: dpl.Bool(true)})
			case dpl.OpFalse:
				push(absVal{kind: absExact, v: dpl.Bool(false)})
			case dpl.OpLoadL:
				push(locals[in.A])
			case dpl.OpStoreL:
				locals[in.A] = pop(1)[0]
			case dpl.OpLoadG:
				push(absVal{})
			case dpl.OpStoreG, dpl.OpPop:
				pop(1)
			case dpl.OpBin:
				ops := pop(2)
				if dpl.TokenKind(in.A) == dpl.TokPlus {
					push(concat(ops[0], ops[1]))
				} else {
					push(absVal{})
				}
			case dpl.OpEq, dpl.OpNe, dpl.OpIndex:
				pop(2)
				push(absVal{})
			case dpl.OpNeg, dpl.OpNot:
				pop(1)
				push(absVal{})
			case dpl.OpJump, dpl.OpReturn, dpl.OpReturnNil:
				reset()
			case dpl.OpJumpFalse:
				pop(1)
			case dpl.OpJFKeep, dpl.OpJTKeep:
				if len(stack) > 0 {
					stack[len(stack)-1] = absVal{}
				}
			case dpl.OpCall:
				pop(int(in.B))
				push(absVal{})
			case dpl.OpCallHost:
				args := pop(int(in.B))
				push(absVal{})
				host := c.HostNames[in.A]
				v.hosts[host] = true
				if !declHosts[host] {
					v.fail(dpl.CodeEffectUndeclared, "%s+%d: %s: calls host %q not in declared effect summary", name, ip, dpl.FormatInstr(c, in), host)
				}
				oidArg, write, isMIB := analysis.MIBPrimitive(host)
				if !isMIB || oidArg >= len(args) {
					continue
				}
				oid := oidPrefix(args[oidArg])
				if write {
					v.writes[oid] = true
					if !covered(v.cp.Verdict.Writes, oid) {
						v.fail(dpl.CodeEffectUndeclared, "%s+%d: %s: writes OID prefix %q not covered by declared writes %v", name, ip, dpl.FormatInstr(c, in), oid, v.cp.Verdict.Writes)
					}
				} else {
					v.reads[oid] = true
					if !covered(v.cp.Verdict.Reads, oid) {
						v.fail(dpl.CodeEffectUndeclared, "%s+%d: %s: reads OID prefix %q not covered by declared reads %v", name, ip, dpl.FormatInstr(c, in), oid, v.cp.Verdict.Reads)
					}
				}
			case dpl.OpLoadLConstBin:
				idx, op := dpl.UnpackIdxOp(in.B)
				if op == dpl.TokPlus {
					push(concat(locals[in.A], absVal{kind: absExact, v: c.Consts[idx]}))
				} else {
					push(absVal{})
				}
			case dpl.OpLoadLLoadLBin:
				idx, op := dpl.UnpackIdxOp(in.B)
				if op == dpl.TokPlus {
					push(concat(locals[in.A], locals[idx]))
				} else {
					push(absVal{})
				}
			case dpl.OpBinJumpFalse:
				pop(2)
			case dpl.OpConstStoreL:
				locals[in.B] = absVal{kind: absExact, v: c.Consts[in.A]}
			case dpl.OpIncL:
				locals[in.A] = concat(locals[in.A], absVal{kind: absExact, v: c.Consts[in.B]})
			case dpl.OpDecL:
				locals[in.A] = absVal{}
			case dpl.OpSetIndex:
				pop(3)
			case dpl.OpArray:
				pop(int(in.A))
				push(absVal{})
			case dpl.OpMap:
				pop(2 * int(in.A))
				push(absVal{})
			case dpl.OpAddC:
				ops := pop(2)
				push(absVal{})
				push(concat(ops[0], ops[1]))
			case dpl.OpAddN:
				ops := pop(int(in.A))
				push(concat(ops[in.A-2], ops[in.A-1]))
			}
		}
	})
	for h := range v.hosts {
		v.res.Recovered.Hosts = append(v.res.Recovered.Hosts, analysis.Effect{Name: h})
	}
	for r := range v.reads {
		v.res.Recovered.Reads = append(v.res.Recovered.Reads, analysis.Effect{Name: r})
	}
	for w := range v.writes {
		v.res.Recovered.Writes = append(v.res.Recovered.Writes, analysis.Effect{Name: w})
	}
	sortEffects(v.res.Recovered.Hosts)
	sortEffects(v.res.Recovered.Reads)
	sortEffects(v.res.Recovered.Writes)
}

func sortEffects(es []analysis.Effect) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Name < es[j-1].Name; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}
