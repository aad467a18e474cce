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
//     OID prefix the bytecode can actually reach (DPL014), and the
//     declared cost the cost of the code (DPL015). Both are recovered by
//     analysis.Scratch.Recover, the one inference and cost model, which an
//     honest node ran over the same optimized bytes to declare them, so
//     an honest artifact's declared and recovered ones are equal. A
//     receiver admits on what it recovered, never on the claim.
package verify

import (
	"fmt"
	"slices"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
)

// Result is one verification outcome: the diagnostics raised and the
// effect summary and cost recovered from the bytecode itself.
type Result struct {
	// Diags uses the same stable codes as the analyzer;
	// every verifier diagnostic is error severity.
	Diags []dpl.Diagnostic
	// Recovered is the effect summary the bytecode proves (exactly an
	// honest declared verdict).
	Recovered analysis.Effects
	// Cost is the cost the bytecode proves (exactly an honest declared
	// cost), without positions.
	Cost analysis.CostEstimate
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
	s := analysis.Borrow()
	defer s.Release()
	// The proof is recorded: a program admitted here does not prove
	// its structure again at its first run.
	if faults := s.VerifyStructure(c); len(faults) > 0 {
		for _, f := range faults {
			fail(faultCodes[f.Kind], "%s", f)
		}
		return res // code too broken for effect or budget recovery
	}
	v := &verifier{cp: cp, res: res, fail: fail, bindings: bindings}
	v.recoverEffects(s)
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

// recoverEffects recovers the effects and the cost with
// analysis.Scratch.Recover, the recovery that produced an honest sender's
// verdict, and checks each host call twice. The host index must resolve
// to the same name, slot and arity in the receiver's bindings (DPL017;
// unused table entries are harmless, so a node with extra registered
// services still accepts the artifact), and the call must be covered by
// the declared verdict (DPL014).
func (v *verifier) recoverEffects(sc *analysis.Scratch) {
	c := v.cp.Object
	bound := make([]bool, len(c.HostNames)) // host indices already checked against the bindings
	v.res.Recovered, v.res.Cost = sc.Recover(c, func(s analysis.Site) {
		at := func() string {
			name, _, _ := c.Block(s.Func)
			return fmt.Sprintf("%s+%d: %s", name, s.IP, dpl.FormatInstr(c, s.Call))
		}
		if !bound[s.Call.A] {
			bound[s.Call.A] = true
			switch idx, arity, ok := v.bindings.Lookup(s.Host); {
			case !ok:
				v.fail(dpl.CodeHostTableSkew, "%s: host %q not bound on this node", at(), s.Host)
			case idx != int(s.Call.A):
				v.fail(dpl.CodeHostTableSkew, "%s: host %q bound at slot %d here, artifact calls slot %d", at(), s.Host, idx, s.Call.A)
			case arity >= 0 && int(s.Call.B) != arity:
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

// checkBudget holds the declared cost to the recovered one (DPL015): a bounded claim must cover the recovered cost, on code
// the receiver finds bounded, and carry a step budget at least the
// declared cost.
func (v *verifier) checkBudget() {
	verdict, cost := v.cp.Verdict, v.res.Cost
	switch {
	case verdict.CostUnbounded:
		// The receiver's own step quota governs.
	case cost.Unbounded:
		v.fail(dpl.CodeBudgetMismatch, "bounded cost claim (%d steps) on code whose cost is unbounded", verdict.CostSteps)
	case verdict.CostSteps < cost.Steps:
		v.fail(dpl.CodeBudgetMismatch, "declared cost %d below the %d steps the code can take", verdict.CostSteps, cost.Steps)
	case verdict.StepBudget == 0:
		v.fail(dpl.CodeBudgetMismatch, "bounded cost claim (%d steps) with no step budget", verdict.CostSteps)
	case verdict.StepBudget < verdict.CostSteps:
		v.fail(dpl.CodeBudgetMismatch, "step budget %d below declared cost %d", verdict.StepBudget, verdict.CostSteps)
	}
}
