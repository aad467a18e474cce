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
//     OID prefixes a dp can reach, computed transitively and
//     constant-folded from the arguments of the MIB primitives, so the
//     admission path can compare a dp's footprint against the
//     delegating principal's grant instead of discovering violations at
//     runtime;
//   - cost analysis: instruction-cost estimates per function with
//     constant-trip loop bounding, used to derive a default VM step
//     budget and to enforce a server-side admission cost ceiling.
//
// Every finding is a dpl.Diagnostic with a stable code (DPL001…), the
// same record as the Translator's and the bytecode verifier's.
package analysis

import "mbd/internal/dpl"

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

// HasErrors reports whether the program must be rejected.
func (r *Report) HasErrors() bool { return dpl.HasErrors(r.Diags) }

// Func returns the summary of the named function, or nil.
func (r *Report) Func(name string) *FuncInfo {
	for _, f := range r.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
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

// Analyze runs the full static-analysis pipeline over prog against the
// host's allowed-function table. It reads the names dpl.Check bound,
// resolving prog itself only if no Check (or Compile) has already done
// so against bindings, and reports the Translator's rule violations
// among its own findings.
// An unchecked program is analyzed all the same: unbound names are
// skipped.
//
// Pipeline: name resolution → per-function CFG → unreachable code →
// definite assignment → liveness/dead stores → never-written globals →
// effect inference → cost analysis.
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

	effects, initSet := inferEffects(prog, &rep.Diags)

	ca := &costAnalyzer{
		prog:     prog,
		effects:  effects,
		memo:     make(map[*dpl.FuncDecl]CostEstimate),
		visiting: make(map[*dpl.FuncDecl]bool),
		diags:    &rep.Diags,
	}

	program := newEffectSet()
	program.mergeFrom(initSet)
	for _, f := range prog.Funcs {
		cost := ca.funcCost(f)
		set := effects[f]
		program.mergeFrom(set)
		rep.Funcs = append(rep.Funcs, &FuncInfo{
			Name:    f.Name,
			Pos:     f.Position(),
			Effects: set.finalize(),
			Cost:    cost,
		})
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
	rep.Effects = program.finalize()
	dpl.SortDiags(rep.Diags)
	return rep
}
