// Package analysis is the delegation-time static analyzer for DPL
// programs. The paper's translator rejects a dp that "violates any of a
// set of defined rules for the given language"; package dpl's Check
// resolves every name once and enforces those rules, and this package
// adds the deeper, flow-sensitive rules an elastic process wants before
// admitting code from another administrative domain:
//
//   - dataflow diagnostics over a per-function control-flow graph
//     (use-before-init, unreachable code, dead stores, never-written
//     globals);
//   - capability/effect inference: which host bindings and which MIB
//     OID prefixes a dp can reach, recovered from the optimized object
//     code (Recover) and closed over calls, so the admission path can
//     compare a dp's footprint against the delegating principal's grant
//     instead of discovering violations at runtime;
//   - cost analysis: instruction-cost estimates per function with
//     constant-trip loop bounding, used to derive a default VM step
//     budget and to enforce a server-side admission cost ceiling.
//
// Every finding is a dpl.Diagnostic with a stable code (DPL001…), the
// same record as the Translator's and the bytecode verifier's.
package analysis

import (
	"fmt"

	"mbd/internal/dpl"
)

// FuncInfo is one function's analysis summary.
type FuncInfo struct {
	Name    string
	Pos     dpl.Pos
	Effects Effects
	Cost    CostEstimate
}

// Report is the result of analyzing one program.
type Report struct {
	// Diags holds every analyzer finding, sorted by position.
	Diags []dpl.Diagnostic
	// Funcs summarizes each function in declaration order.
	Funcs []*FuncInfo
	// Effects is the program-level union: everything any function (or
	// a global initializer) can reach. Any function may serve as the
	// instantiation entry point, so admission checks this union.
	Effects Effects
	// Cost is the program-level worst case: the costliest function,
	// Unbounded if any function is unbounded.
	Cost CostEstimate
}

// budgetMargin and budgetFloor pad a bounded cost estimate into a VM
// step budget: estimate*margin + floor. The margin absorbs the
// coarseness of the cost model; the floor covers program prologue
// (global initializers) and host-call internals.
const (
	budgetMargin = 4
	budgetFloor  = 1024
)

// SuggestedBudget derives a vm.WithMaxSteps budget from the program
// cost: a bounded program gets a generous multiple of its estimate (so
// a runaway can never exceed ~4× its static cost), an unbounded one —
// the resident-agent case — falls back to the supplied default (0 =
// unlimited).
func (r *Report) SuggestedBudget(fallback uint64) uint64 {
	if r.Cost.Unbounded {
		return fallback
	}
	b := addCost(mulCost(r.Cost.Steps, budgetMargin), budgetFloor)
	if fallback != 0 && fallback < b {
		return fallback // never exceed the server's own ceiling
	}
	return b
}

// Translate runs the delegation pipeline over a parsed program: Compile
// (the Translator's rules), Analyze, Optimize, and then the effects of
// the optimized object code, which is what the node runs and ships. A
// rule violation returns Compile's *dpl.Error and no report.
func Translate(prog *dpl.Program, bindings *dpl.Bindings) (*dpl.Compiled, *Report, error) {
	obj, err := dpl.Compile(prog, bindings)
	if err != nil {
		return nil, nil, err
	}
	rep := Analyze(prog, bindings)
	dpl.Optimize(obj)
	rep.RecoverEffects(obj)
	return obj, rep, nil
}

// Analyze runs the source-level analyses over prog against the host's
// allowed-function table: everything that needs source positions. It
// reads the names dpl.Check bound, resolving prog itself only if no
// Check (or Compile) has already done so against bindings, and reports
// the Translator's rule violations among its own findings.
// An unchecked program is analyzed all the same: unbound names are
// skipped. The report's effects stay empty until RecoverEffects.
//
// Pipeline: name resolution → per-function CFG → unreachable code →
// definite assignment → liveness/dead stores → never-written globals →
// cost analysis.
func Analyze(prog *dpl.Program, bindings *dpl.Bindings) *Report {
	rep := &Report{Diags: append([]dpl.Diagnostic(nil), dpl.Check(prog, bindings)...)}

	for _, f := range prog.Funcs {
		g := buildCFG(f)
		fr := frame{globals: prog.Globals, fn: f}
		unreachableDiags(g, &rep.Diags)
		definiteAssignment(g, fr, &rep.Diags)
		liveness(g, fr, &rep.Diags)
	}
	globalDiags(prog, &rep.Diags)

	ca := &costAnalyzer{
		prog:     prog,
		memo:     make(map[*dpl.FuncDecl]CostEstimate),
		visiting: make(map[*dpl.FuncDecl]bool),
		diags:    &rep.Diags,
	}
	for _, f := range prog.Funcs {
		cost := ca.funcCost(f)
		rep.Funcs = append(rep.Funcs, &FuncInfo{Name: f.Name, Pos: f.Position(), Cost: cost})
		if cost.Unbounded && !rep.Cost.Unbounded {
			rep.Cost.Unbounded = true
			rep.Cost.Pos = cost.Pos
		}
		if cost.Steps > rep.Cost.Steps {
			rep.Cost.Steps = cost.Steps
			if !rep.Cost.Unbounded || cost.Unbounded {
				rep.Cost.Pos = cost.Pos
			}
		}
	}
	dpl.SortDiags(rep.Diags)
	return rep
}

// RecoverEffects sets the report's effects from c, the object code of
// the analyzed program: the program's summary, and each function's,
// closed over the functions its code calls. A MIB primitive whose OID
// prefix is unknown raises DPL006 at the call.
func (r *Report) RecoverEffects(c *dpl.Compiled) {
	direct := make([]effectSet, len(c.Funcs)+1) // the global initializers, then each function
	r.Effects = Recover(c, func(s Site) {
		direct[s.Func+1].add(s)
		if s.MIB && s.OID == Wildcard {
			r.Diags = append(r.Diags, dpl.Diagnostic{
				Code: dpl.CodeDynamicOID,
				Sev:  dpl.SevWarning,
				Pos:  s.Pos,
				Msg:  fmt.Sprintf("OID argument of %s is not a constant; inferred effect widens to the whole MIB", s.Host),
			})
		}
	})
	own := make([]Effects, len(c.Funcs))
	for i := range own {
		own[i] = direct[i+1].finalize()
	}
	seen := make([]bool, len(c.Funcs))
	var set effectSet
	var reach func(fn int) // gathers fn's effects and those of every function it calls
	reach = func(fn int) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		set.merge(own[fn])
		for _, in := range c.Funcs[fn].Code {
			if in.Op == dpl.OpCall && in.A >= 0 && in.A < len(c.Funcs) {
				reach(in.A)
			}
		}
	}
	for i, f := range r.Funcs[:min(len(r.Funcs), len(c.Funcs))] {
		clear(seen)
		set = effectSet{}
		reach(i)
		f.Effects = set.finalize()
	}
	dpl.SortDiags(r.Diags)
}

// Verdict is the verdict a CompiledProgram of the analyzed program
// carries. Its step budget is the unclamped one: each receiving hop
// applies its own quota at admission.
func (r *Report) Verdict() dpl.Verdict {
	return dpl.Verdict{
		Hosts:         r.Effects.HostNames(),
		Reads:         r.Effects.ReadPrefixes(),
		Writes:        r.Effects.WritePrefixes(),
		CostSteps:     r.Cost.Steps,
		CostUnbounded: r.Cost.Unbounded,
		StepBudget:    r.SuggestedBudget(0),
	}
}
