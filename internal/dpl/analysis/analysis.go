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
	Diags []Diagnostic
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
func (r *Report) HasErrors() bool { return HasErrors(r.Diags) }

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
// host's allowed-function table. prog should already have passed
// dpl.Check — the analyzer is robust to unchecked programs (unresolved
// names are simply skipped) but its diagnostics assume resolution.
//
// Pipeline: variable resolution → per-function CFG → unreachable code →
// definite assignment → liveness/dead stores → never-written globals →
// effect inference → cost analysis.
func Analyze(prog *dpl.Program, bindings *dpl.Bindings) *Report {
	rep := &Report{}
	res := resolve(prog)

	for _, f := range prog.Funcs {
		g := buildCFG(f)
		unreachableDiags(g, &rep.Diags)
		definiteAssignment(g, res, &rep.Diags)
		liveness(g, res, &rep.Diags)
	}
	globalDiags(prog, res, &rep.Diags)

	effects, initSet := inferEffects(prog, bindings, &rep.Diags)

	funcsByName := make(map[string]*dpl.FuncDecl, len(prog.Funcs))
	for _, f := range prog.Funcs {
		if _, dup := funcsByName[f.Name]; !dup {
			funcsByName[f.Name] = f
		}
	}
	ca := &costAnalyzer{
		res:      res,
		bindings: bindings,
		funcs:    funcsByName,
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
	SortDiags(rep.Diags)
	return rep
}
