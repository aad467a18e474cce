// Package verify admits compiled delegated programs without their
// source. A CompiledProgram arriving over the wire carries object code
// plus the sender's analysis verdict; following Minsky's rule that a
// hop must not blindly trust upstream artifacts, this package re-proves
// everything the receiver's admission decision depends on directly over
// the opcode stream:
//
//   - structural safety (stack depth/shape, jump targets, operand and
//     constant-index bounds) via dpl's abstract interpreter, reported
//     as DPL010–DPL013;
//   - that the receiver's host-binding table matches the artifact's
//     host-call indices (DPL017) and that the artifact was produced by
//     the same compiler generation (DPL016);
//   - that the declared effect summary covers every host call and MIB
//     OID prefix the bytecode can actually reach (DPL014), using the
//     same constant-head recovery rules the source-level analyzer
//     applies, so an honest artifact always passes;
//   - that the declared cost/step-budget pair is internally consistent
//     and not below the provable worst case for loop-free code
//     (DPL015).
//
// What cannot be decided statically (actual step counts of bounded
// loops) remains enforced dynamically by the VM's step quota.
package verify

import (
	"fmt"
	"strings"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
)

// Result is one verification outcome: the diagnostics raised and the
// effect summary recovered from the bytecode itself.
type Result struct {
	// Diags uses the same stable codes as the source-level analyzer;
	// every verifier diagnostic is error severity.
	Diags []dpl.Diagnostic
	// Recovered is the effect summary the bytecode proves (a subset of
	// an honest declared verdict).
	Recovered analysis.Effects
}

// OK reports whether the program may be admitted.
func (r *Result) OK() bool { return !dpl.HasErrors(r.Diags) }

// Err returns the diagnostics as an error when verification failed.
func (r *Result) Err() error {
	if r.OK() {
		return nil
	}
	return &dpl.Error{Diags: r.Diags}
}

// faultCodes maps structural fault kinds to diagnostic codes.
var faultCodes = map[dpl.FaultKind]string{
	dpl.FaultOpcode:  dpl.CodeBadOpcode,
	dpl.FaultJump:    dpl.CodeBadJump,
	dpl.FaultStack:   dpl.CodeStackUnsafe,
	dpl.FaultOperand: dpl.CodeBadOperand,
}

// Verify checks cp against the receiver's bindings table. A nil error
// from Result.Err means the object code is safe to execute under the
// declared verdict.
func Verify(cp *dpl.CompiledProgram, bindings *dpl.Bindings) *Result {
	res := &Result{}
	fail := func(code, msg string, args ...any) {
		res.Diags = append(res.Diags, dpl.Diagnostic{
			Code: code, Sev: dpl.SevError, Msg: fmt.Sprintf(msg, args...),
		})
	}
	if cp == nil || cp.Object == nil {
		fail(dpl.CodeBadOperand, "artifact carries no object code")
		return res
	}
	if cp.Version < dpl.MinCompilerVersion || cp.Version > dpl.CompilerVersion {
		fail(dpl.CodeVersionSkew, "artifact compiled by generation %d, this node accepts %d..%d",
			cp.Version, dpl.MinCompilerVersion, dpl.CompilerVersion)
		return res
	}
	c := cp.Object
	// An artifact may be older than this node, but it must not lie about
	// it: opcodes from a newer generation than the claimed Version mean
	// the stamp is forged (or the sender's toolchain is inconsistent),
	// and downstream version-gated handling would misfire.
	if skew := opcodeSkew(c, cp.Version); skew != "" {
		fail(dpl.CodeVersionSkew, "%s", skew)
		return res
	}
	if faults := c.VerifyStructure(); len(faults) > 0 {
		for _, f := range faults {
			res.Diags = append(res.Diags, dpl.Diagnostic{
				Code: faultCodes[f.Kind], Sev: dpl.SevError, Msg: f.String(),
			})
		}
		return res // code too broken for effect or budget recovery
	}
	v := &verifier{cp: cp, res: res, fail: fail, bindings: bindings}
	v.checkHostTable()
	v.recoverEffects()
	v.checkBudget()
	return res
}

// opcodeSkew returns a non-empty description when the object code uses
// an opcode introduced after the compiler generation the artifact
// claims (DPL016). Structural verification has not run yet, so this
// walk assumes nothing about the code beyond its opcode bytes.
func opcodeSkew(c *dpl.Compiled, version int) string {
	check := func(name string, code []dpl.Instr) string {
		for ip, in := range code {
			if g := dpl.OpcodeVersion(in.Op); g > version {
				return fmt.Sprintf("%s+%d: opcode %s requires compiler generation %d, artifact claims %d",
					name, ip, in.Op, g, version)
			}
		}
		return ""
	}
	if s := check("<init>", c.InitCode); s != "" {
		return s
	}
	for _, fn := range c.Funcs {
		if s := check(fn.Name, fn.Code); s != "" {
			return s
		}
	}
	return ""
}

type verifier struct {
	cp       *dpl.CompiledProgram
	res      *Result
	fail     func(code, msg string, args ...any)
	bindings *dpl.Bindings

	hosts  map[string]bool
	reads  map[string]bool
	writes map[string]bool
}

// eachBlock visits the init block and every function body.
func (v *verifier) eachBlock(f func(name string, code []dpl.Instr, nLocals int)) {
	f("<init>", v.cp.Object.InitCode, 0)
	for _, fn := range v.cp.Object.Funcs {
		f(fn.Name, fn.Code, fn.NumLocals)
	}
}

// checkHostTable proves that every host index the code actually calls
// resolves to the same name, slot and arity in the receiver's bindings
// (DPL017). Unused table entries are harmless and ignored, so a node
// with extra registered services still accepts the artifact.
func (v *verifier) checkHostTable() {
	c := v.cp.Object
	seen := map[int]bool{}
	v.eachBlock(func(name string, code []dpl.Instr, _ int) {
		for ip, in := range code {
			if in.Op != dpl.OpCallHost || seen[in.A] {
				continue
			}
			seen[in.A] = true
			host := c.HostNames[in.A]
			idx, arity, ok := v.bindings.Lookup(host)
			switch {
			case !ok:
				v.fail(dpl.CodeHostTableSkew, "%s+%d: %s: host %q not bound on this node", name, ip, dpl.FormatInstr(c, in), host)
			case idx != in.A:
				v.fail(dpl.CodeHostTableSkew, "%s+%d: %s: host %q bound at slot %d here, artifact calls slot %d", name, ip, dpl.FormatInstr(c, in), host, idx, in.A)
			case arity >= 0 && in.B != arity:
				v.fail(dpl.CodeHostTableSkew, "%s+%d: %s: host %q takes %d args, call passes %d", name, ip, dpl.FormatInstr(c, in), host, arity, in.B)
			}
		}
	})
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

// concat mirrors analysis.constStringHead over compiled code: the
// recovered head of l+r when l is known.
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
// proves, mirroring analysis.constOIDPrefix: exact strings fold whole,
// partial heads keep complete dotted components, everything else is
// the wildcard.
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

// recoverEffects walks every block tracking constant values through the
// stack and locals (per basic block, forgetting state at jump targets,
// exactly like the optimizer's propagation pass) and checks each host
// call against the declared verdict (DPL014).
func (v *verifier) recoverEffects() {
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
				pop(in.B)
				push(absVal{})
			case dpl.OpCallHost:
				args := pop(in.B)
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
				pop(in.A)
				push(absVal{})
			case dpl.OpMap:
				pop(2 * in.A)
				push(absVal{})
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

// checkBudget validates the declared cost/budget pair (DPL015). A
// bounded claim must carry a positive budget at least the cost
// estimate, must not sit on recursive code (the source analyzer always
// marks recursion unbounded), and for loop-free code must not undercut
// the provable worst-case instruction count.
func (v *verifier) checkBudget() {
	verdict := v.cp.Verdict
	if verdict.CostUnbounded {
		return // the receiver's own step quota governs
	}
	if verdict.StepBudget == 0 {
		v.fail(dpl.CodeBudgetMismatch, "bounded cost claim (%d steps) with no step budget", verdict.CostSteps)
		return
	}
	if verdict.StepBudget < verdict.CostSteps {
		v.fail(dpl.CodeBudgetMismatch, "step budget %d below declared cost %d", verdict.StepBudget, verdict.CostSteps)
		return
	}
	if cyclic(v.cp.Object) {
		v.fail(dpl.CodeBudgetMismatch, "bounded cost claim on recursive code")
		return
	}
	worst, ok := worstCaseSteps(v.cp.Object)
	if ok && worst > verdict.StepBudget {
		v.fail(dpl.CodeBudgetMismatch, "step budget %d below provable worst case %d for loop-free code", verdict.StepBudget, worst)
	}
}

// cyclic reports whether the user-function call graph has a cycle.
func cyclic(c *dpl.Compiled) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, len(c.Funcs))
	var visit func(i int) bool
	visit = func(i int) bool {
		color[i] = gray
		for _, in := range c.Funcs[i].Code {
			if in.Op != dpl.OpCall {
				continue
			}
			switch color[in.A] {
			case gray:
				return true
			case white:
				if visit(in.A) {
					return true
				}
			}
		}
		color[i] = black
		return false
	}
	for i := range c.Funcs {
		if color[i] == white && visit(i) {
			return true
		}
	}
	return false
}

// worstCaseSteps computes the exact worst-case executed instruction
// count (init plus the most expensive entry function) when every code
// block is loop-free (all jumps forward) and the call graph is acyclic.
// ok=false means a back-edge exists and no static count is provable.
func worstCaseSteps(c *dpl.Compiled) (steps uint64, ok bool) {
	funcMax := make([]uint64, len(c.Funcs))
	funcDone := make([]bool, len(c.Funcs))
	var blockMax func(code []dpl.Instr) (uint64, bool)
	var funcCost func(i int) (uint64, bool)
	blockMax = func(code []dpl.Instr) (uint64, bool) {
		// longest[ip] = worst-case steps executed from ip to exit. With
		// only forward jumps the instruction graph is a DAG and a single
		// reverse sweep suffices.
		longest := make([]uint64, len(code)+1)
		for ip := len(code) - 1; ip >= 0; ip-- {
			in := code[ip]
			cost := uint64(1)
			if in.Op == dpl.OpCall {
				sub, subOK := funcCost(in.A)
				if !subOK {
					return 0, false
				}
				cost += sub
			}
			var after uint64
			switch in.Op {
			case dpl.OpReturn, dpl.OpReturnNil:
				after = 0
			case dpl.OpJump:
				if in.A <= ip {
					return 0, false // back-edge: loop
				}
				after = longest[in.A]
			case dpl.OpJumpFalse, dpl.OpJFKeep, dpl.OpJTKeep, dpl.OpBinJumpFalse:
				if in.A <= ip {
					return 0, false
				}
				after = max(longest[in.A], longest[ip+1])
			default:
				after = longest[ip+1]
			}
			longest[ip] = cost + after
		}
		if len(code) == 0 {
			return 0, true
		}
		return longest[0], true
	}
	funcCost = func(i int) (uint64, bool) {
		if funcDone[i] {
			return funcMax[i], true
		}
		m, okf := blockMax(c.Funcs[i].Code)
		if !okf {
			return 0, false
		}
		funcMax[i] = m
		funcDone[i] = true
		return m, true
	}
	initSteps, okInit := blockMax(c.InitCode)
	if !okInit {
		return 0, false
	}
	var entry uint64
	for i := range c.Funcs {
		m, okf := funcCost(i)
		if !okf {
			return 0, false
		}
		entry = max(entry, m)
	}
	return initSteps + entry, true
}
