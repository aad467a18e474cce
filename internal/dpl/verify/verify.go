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
//     OID prefix the bytecode can actually reach (DPL014). The effects
//     are recovered by analysis.Recover, the one inference, which an
//     honest node ran over the same optimized bytes to declare them, so
//     an honest artifact's declared and recovered effects are equal;
//   - that the declared cost/step-budget pair is internally consistent
//     and not below the provable worst case for loop-free code
//     (DPL015).
//
// What cannot be decided statically (actual step counts of bounded
// loops) remains enforced dynamically by the VM's step quota.
package verify

import (
	"fmt"
	"slices"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
)

// Result is one verification outcome: the diagnostics raised and the
// effect summary recovered from the bytecode itself.
type Result struct {
	// Diags uses the same stable codes as the source-level analyzer;
	// every verifier diagnostic is error severity.
	Diags []dpl.Diagnostic
	// Recovered is the effect summary the bytecode proves (exactly an
	// honest declared verdict).
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
			fail(faultCodes[f.Kind], "%s", f)
		}
		return res // code too broken for effect or budget recovery
	}
	v := &verifier{cp: cp, res: res, fail: fail, bindings: bindings}
	v.recoverEffects()
	v.checkBudget()
	return res
}

// opcodeSkew returns a non-empty description when the object code uses
// an opcode introduced after the compiler generation the artifact
// claims (DPL016). Structural verification has not run yet, so this
// walk assumes nothing about the code beyond its opcode bytes.
func opcodeSkew(c *dpl.Compiled, version int) string {
	for fn := -1; fn < len(c.Funcs); fn++ {
		name, code, _ := c.Block(fn)
		for ip, in := range code {
			if g := dpl.OpcodeVersion(in.Op); g > version {
				return fmt.Sprintf("%s+%d: opcode %s requires compiler generation %d, artifact claims %d",
					name, ip, in.Op, g, version)
			}
		}
	}
	return ""
}

type verifier struct {
	cp       *dpl.CompiledProgram
	res      *Result
	fail     func(code, msg string, args ...any)
	bindings *dpl.Bindings
}

// recoverEffects recovers the effects with analysis.Recover, the
// inference that produced an honest sender's verdict, and checks each
// host call twice. The host index must resolve to the same name, slot
// and arity in the receiver's bindings (DPL017; unused table entries
// are harmless, so a node with extra registered services still accepts
// the artifact), and the call must be covered by the declared verdict
// (DPL014).
func (v *verifier) recoverEffects() {
	c := v.cp.Object
	bound := make([]bool, len(c.HostNames)) // host indices already checked against the bindings
	v.res.Recovered = analysis.Recover(c, func(s analysis.Site) {
		at := func() string {
			name, _, _ := c.Block(s.Func)
			return fmt.Sprintf("%s+%d: %s", name, s.IP, dpl.FormatInstr(c, s.Call))
		}
		if !bound[s.Call.A] {
			bound[s.Call.A] = true
			switch idx, arity, ok := v.bindings.Lookup(s.Host); {
			case !ok:
				v.fail(dpl.CodeHostTableSkew, "%s: host %q not bound on this node", at(), s.Host)
			case idx != s.Call.A:
				v.fail(dpl.CodeHostTableSkew, "%s: host %q bound at slot %d here, artifact calls slot %d", at(), s.Host, idx, s.Call.A)
			case arity >= 0 && s.Call.B != arity:
				v.fail(dpl.CodeHostTableSkew, "%s: host %q takes %d args, call passes %d", at(), s.Host, arity, s.Call.B)
			}
		}
		if !slices.Contains(v.cp.Verdict.Hosts, s.Host) {
			v.fail(dpl.CodeEffectUndeclared, "%s: calls host %q not in declared effect summary", at(), s.Host)
		}
		if !s.MIB {
			return
		}
		declared, verb := v.cp.Verdict.Reads, "reads"
		if s.Write {
			declared, verb = v.cp.Verdict.Writes, "writes"
		}
		if !slices.ContainsFunc(declared, func(d string) bool { return analysis.OIDCovers(d, s.OID) }) {
			v.fail(dpl.CodeEffectUndeclared, "%s: %s OID prefix %q not covered by declared %s %v", at(), verb, s.OID, verb, declared)
		}
	})
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
	state := make([]byte, len(c.Funcs)) // 0 unvisited, 1 on the search path, 2 done
	var reaches func(i int) bool        // a cycle from i
	reaches = func(i int) bool {
		if state[i] != 0 {
			return state[i] == 1
		}
		state[i] = 1
		for _, in := range c.Funcs[i].Code {
			// Dead code may hold any index.
			if in.Op == dpl.OpCall && in.A >= 0 && in.A < len(c.Funcs) && reaches(in.A) {
				return true
			}
		}
		state[i] = 2
		return false
	}
	for i := range c.Funcs {
		if reaches(i) {
			return true
		}
	}
	return false
}

// worstCaseSteps computes the exact worst-case executed instruction
// count (init plus the most expensive entry function) when every code
// block is loop-free (all jumps forward) and the call graph is acyclic.
// ok=false means a back-edge exists and no static count is provable.
// Structural verification has run, so an operand out of bounds belongs
// to dead code and adds nothing.
func worstCaseSteps(c *dpl.Compiled) (uint64, bool) {
	costs := make([]uint64, len(c.Funcs)) // 0 until computed
	// cost is the worst case of function f, or of the init block for f < 0.
	var cost func(f int) (uint64, bool)
	cost = func(f int) (uint64, bool) {
		code := c.InitCode
		if f >= 0 {
			if costs[f] > 0 {
				return costs[f], true
			}
			code = c.Funcs[f].Code
		}
		// longest[ip] = worst-case steps executed from ip to exit. With
		// only forward jumps the instruction graph is a DAG and a single
		// reverse sweep suffices.
		longest := make([]uint64, len(code)+1)
		for ip := len(code) - 1; ip >= 0; ip-- {
			in := code[ip]
			falls, jumps := dpl.OpcodeFlow(in.Op)
			if falls {
				longest[ip] = longest[ip+1]
			}
			if jumps && in.A <= len(code) {
				if in.A <= ip {
					return 0, false // back-edge: loop
				}
				longest[ip] = max(longest[ip], longest[in.A])
			}
			longest[ip]++
			if in.Op == dpl.OpCall && in.A >= 0 && in.A < len(c.Funcs) {
				sub, ok := cost(in.A)
				if !ok {
					return 0, false
				}
				longest[ip] += sub
			}
		}
		if f >= 0 {
			costs[f] = longest[0]
		}
		return longest[0], true
	}
	init, ok := cost(-1)
	var entry uint64
	for f := range c.Funcs {
		m, okf := cost(f)
		if !ok || !okf {
			return 0, false
		}
		entry = max(entry, m)
	}
	return init + entry, ok
}
