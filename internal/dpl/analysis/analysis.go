// Package analysis is the delegation-time static analyzer for DPL
// programs. The paper's translator rejects a dp that "violates any of a
// set of defined rules for the given language"; package dpl's Check
// resolves every name once and enforces those rules, and this package
// adds the deeper, flow-sensitive rules an elastic process wants before
// admitting code from another administrative domain. It reads object
// code, never the AST: one control-flow graph per code block (graph.go)
// carries every pass, and source positions come from the compiler's
// position table.
//
//   - dataflow diagnostics over the compiler's output (use-before-init,
//     unreachable code, dead stores, never-written globals);
//   - capability/effect inference: which host bindings and which MIB
//     OID prefixes a dp can reach, recovered from the optimized object
//     code (Recover) and closed over calls, so the admission path can
//     compare a dp's footprint against the delegating principal's grant
//     instead of discovering violations at runtime;
//   - cost analysis: a bound on the VM steps of the optimized object
//     code, with counted loops (Recover too), used to derive a VM step
//     budget and to enforce a server-side admission cost ceiling. The
//     bytecode verifier runs the same effect and cost recovery on every
//     artifact a node receives.
//
// Every finding is a dpl.Diagnostic with a stable code (DPL001…), the
// same record as the Translator's and the bytecode verifier's.
package analysis

import (
	"fmt"
	"slices"

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

// budgetMargin and budgetFloor pad a bounded cost into a VM step
// budget: cost*margin + floor, slack for a ceiling that must never stop
// a program inside its own bound.
const (
	budgetMargin = 4
	budgetFloor  = 1024
)

// SuggestedBudget derives a vm.WithMaxSteps budget from the program
// cost: a bounded program gets a generous multiple of its bound (so
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
// (the Translator's rules), the diagnostics of its output, Optimize, the
// structural proof a VM needs before it runs the code, and then the
// effects and the cost of the optimized object code, which is what the
// node runs and ships. A rule violation returns Compile's *dpl.Error and
// no report.
func Translate(prog *dpl.Program, bindings *dpl.Bindings) (*dpl.Compiled, *Report, error) {
	s := Borrow()
	defer s.Release()
	return s.Translate(prog, bindings)
}

// Translate is the package-level Translate on s.
func (s *Scratch) Translate(prog *dpl.Program, bindings *dpl.Bindings) (*dpl.Compiled, *Report, error) {
	obj, err := s.Compile(prog, bindings)
	if err != nil {
		return nil, nil, err
	}
	rep := s.analyze(prog, obj, nil)
	// Proved here, on the admitting goroutine, the outcome is recorded
	// and no instance's first run proves it again.
	s.VerifyStructure(obj)
	if err := obj.EnsureStructure(); err != nil {
		return nil, nil, err
	}
	s.RecoverEffects(rep, obj)
	return obj, rep, nil
}

// Analyze reports on prog against the host's allowed-function table
// without shipping code: it compiles the program with dpl.Scratch.Lower,
// so one the Translator refuses is analyzed all the same, its rule
// violations among the findings, then optimizes and prices it. The
// report's effects stay empty until Scratch.RecoverEffects.
func Analyze(prog *dpl.Program, bindings *dpl.Bindings) *Report {
	s := Borrow()
	defer s.Release()
	return s.Analyze(prog, bindings)
}

// Analyze is the package-level Analyze on s.
func (s *Scratch) Analyze(prog *dpl.Program, bindings *dpl.Bindings) *Report {
	obj, diags, err := s.Lower(prog, bindings)
	if err != nil {
		return &Report{Diags: append([]dpl.Diagnostic(nil), diags...)}
	}
	rep := s.analyze(prog, obj, diags)
	s.recover(obj, nil)
	rep.Cost = (&coster{c: obj, s: s, diags: &rep.Diags, info: rep.Funcs}).program()
	dpl.SortDiags(rep.Diags)
	return rep
}

// analyze reports on obj, prog compiled: the Translator's findings
// (checked), then DPL001–DPL004 from obj as compiled; then it optimizes
// obj. Names and function positions come from prog's declarations.
func (s *Scratch) analyze(prog *dpl.Program, obj *dpl.Compiled, checked []dpl.Diagnostic) *Report {
	rep := &Report{Diags: append([]dpl.Diagnostic(nil), checked...)}
	s.diagnose(prog, obj, &rep.Diags)
	s.Optimize(obj)
	infos := make([]FuncInfo, len(prog.Funcs))
	rep.Funcs = make([]*FuncInfo, len(prog.Funcs))
	for i, f := range prog.Funcs {
		infos[i] = FuncInfo{Name: f.Name, Pos: f.Position()}
		rep.Funcs[i] = &infos[i]
	}
	return rep
}

// RecoverEffects sets r's effects and cost from c, the object code of
// the analyzed program that the node ships and every receiver recovers
// them from the same way: the program's summary, and each function's,
// its effects closed over the functions its code calls. A MIB primitive
// whose OID prefix is unknown raises DPL006 at the call, and the
// pricing DPL005 and DPL009; they replace any an earlier recovery
// raised.
func (sc *Scratch) RecoverEffects(r *Report, c *dpl.Compiled) {
	r.Diags = slices.DeleteFunc(r.Diags, func(d dpl.Diagnostic) bool {
		return d.Code == dpl.CodeDynamicOID || d.Code == dpl.CodeBusyLoop || d.Code == dpl.CodeRecursion
	})
	direct := sc.effectSets(len(c.Funcs) + 1) // the global initializers, then each function
	r.Effects = sc.recover(c, func(s Site) {
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
	own := sc.own[:0]
	for i := range c.Funcs {
		own = append(own, direct[i+1].finalize())
	}
	sc.own = own
	// Each function's effects are gathered in the scratch, then copied
	// out in one array for all of them.
	funcs := r.Funcs[:min(len(r.Funcs), len(c.Funcs))]
	gathered, lens := sc.gathered[:0], sc.lens[:0]
	for i := range funcs {
		sc.flags = resize(sc.flags, len(c.Funcs))
		sc.reached.reset()
		sc.reach(c, i, own)
		e := sc.reached.finalize()
		gathered = append(append(append(gathered, e.Hosts...), e.Reads...), e.Writes...)
		lens = append(lens, len(e.Hosts), len(e.Reads), len(e.Writes))
	}
	sc.gathered, sc.lens = gathered, lens
	all := slices.Clone(gathered)
	part := func(n int) (es []Effect) {
		if n > 0 {
			es, all = all[:n:n], all[n:]
		}
		return es
	}
	for i, f := range funcs {
		f.Effects = Effects{Hosts: part(lens[3*i]), Reads: part(lens[3*i+1]), Writes: part(lens[3*i+2])}
	}
	r.Cost = (&coster{c: c, s: sc, diags: &r.Diags, info: r.Funcs}).program()
	dpl.SortDiags(r.Diags)
}

// Verdict is the verdict a CompiledProgram of the analyzed program
// carries. Its step budget is the unclamped one: each receiving hop
// derives its own from the cost it recovers.
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
