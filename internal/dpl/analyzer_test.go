package dpl_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
)

// costSound fails t when the VM runs src's main, optimized, for more
// steps than the analyzer's bound on the code, the global initializers
// included. It reports whether the bound was finite.
func costSound(t *testing.T, src string) bool {
	t.Helper()
	prog, err := dpl.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	b := analysis.LintBindings()
	obj, rep, err := analysis.Translate(prog, b)
	if err != nil || rep.Cost.Unbounded {
		return false
	}
	if _, cost := new(analysis.Scratch).Recover(obj, nil); cost.Steps != rep.Cost.Steps || cost.Unbounded {
		t.Fatalf("Recover prices the shipped code at %v, Translate at %v\n%s", cost, rep.Cost, src)
	}
	vm := dpl.NewVM(obj, b, dpl.WithMaxSteps(rep.Cost.Steps+1))
	_, err = vm.Run(context.Background(), "main")
	if steps := vm.Steps(); steps > rep.Cost.Steps {
		t.Fatalf("the VM ran %d steps (%v), the bound is %d\n%s\n%s", steps, err, rep.Cost.Steps, src, dpl.Disassemble(obj))
	}
	return true
}

// TestCostSound: on generated programs and on loops of every shape the
// model counts, every bound the analyzer proves holds for the VM.
func TestCostSound(t *testing.T) {
	for _, c := range []struct {
		src     string
		bounded bool
	}{
		{`func main() { var i = 0; var s = 0; while (i < 50) { s += i; i += 1; } return s; }`, true},
		{`func main() { var s = 0; for (var i = 10; i > 0; i -= 1) { for (var j = 0; j <= 10; j += 3) { if (j == i) { break; } s += j; } } return s; }`, true},
		{`func main() { var s = 0; for (var i = 0; i < 9; i += 2) { if (i == 4) { continue; } s += i; } return s; }`, true},
		{`func f(n) { for (var i = 0; i < 100; i += 1) { if (i == n) { return i; } } return -1; } func main() { return f(7) + f(200); }`, true},
		{`func main() { var i = 5; while (i >= 5) { i = 4; } return i; }`, false},
		{`func main() { var i = 0; while (i < 10) { if (i > 3) { continue; } i += 1; } return i; }`, false},
		{`func main() { for (var i = 0; i < 10; i += 1) { i -= 1; } }`, false},
		// A loop over a global that a call resets: the AST model priced
		// it bounded at a fraction of the steps it runs.
		{`var g = 0;
var resets = 0;
func bump() { if (resets < 100) { resets += 1; g = 0; } }
func main() { for (g = 0; g < 10; g += 1) { bump(); } return resets; }`, false},
	} {
		if got := costSound(t, c.src); got != c.bounded {
			t.Errorf("bounded = %v, want %v\n%s", got, c.bounded, c.src)
		}
	}
	bounded := 0
	for seed := range int64(3000) {
		if costSound(t, dpl.GenProgram(seed, seed%4 == 0)) {
			bounded++
		}
	}
	if bounded < 2500 {
		t.Fatalf("only %d of 3000 generated programs priced bounded", bounded)
	}
}

// FuzzCostSound explores the same property from generator seeds.
func FuzzCostSound(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		costSound(t, dpl.GenProgram(seed, seed%4 == 0))
	})
}

// analyzerDiff compares the analyzer with refAnalyze, the AST analyzer
// it replaced, on src: every diagnostic the reference raises must come
// back with the same code, position and message, and no other but
// effect recovery's DPL006, which the reference left to Recover; every
// function the reference prices bounded must be bounded. Two
// differences are by design. A loop that a return leaves exits, so it
// is no busy loop (DPL005). The reference counted only for loops, so a
// function it left unbounded may now be bounded. And a statement the
// reference also found unreachable is reported where its region has no
// entry but the empty block a break, continue or return left in the
// reference's graph (see refUnreachable).
func analyzerDiff(t *testing.T, name, src string, b *dpl.Bindings) {
	t.Helper()
	prog, err := dpl.Parse(src)
	if err != nil {
		return
	}
	want := refAnalyze(prog, b)
	got := analysis.Analyze(prog, b)
	for _, d := range want.Diags {
		if !slices.Contains(got.Diags, d) && !(d.Code == dpl.CodeBusyLoop && loopReturns(prog, d.Pos)) {
			t.Errorf("%s: the analyzer lost %s\n%s", name, d, src)
		}
	}
	for _, d := range got.Diags {
		if !slices.Contains(want.Diags, d) && d.Code != dpl.CodeDynamicOID && !(d.Code == dpl.CodeUnreachable && refUnreachable(prog, d.Pos)) {
			t.Errorf("%s: the analyzer added %s\n%s", name, d, src)
		}
	}
	for i, f := range want.Funcs[:min(len(want.Funcs), len(got.Funcs))] {
		if !f.Cost.Unbounded && got.Funcs[i].Cost.Unbounded {
			t.Errorf("%s: func %s: the reference bounds it (%v), the analyzer does not\n%s", name, f.Name, f.Cost, src)
		}
	}
}

// refUnreachable reports whether the reference's graph holds the
// statement at pos in an unreachable block.
func refUnreachable(prog *dpl.Program, pos dpl.Pos) bool {
	for _, f := range prog.Funcs {
		g := buildCFG(f)
		for _, blk := range g.Blocks {
			for _, n := range blk.Nodes {
				if n.Position() == pos && !g.Reachable()[blk] {
					return true
				}
			}
		}
	}
	return false
}

// loopReturns reports whether the loop at pos holds a return.
func loopReturns(prog *dpl.Program, pos dpl.Pos) bool {
	found := false
	for _, f := range prog.Funcs {
		inspect(f.Body, func(n dpl.Node) bool {
			switch n := n.(type) {
			case *dpl.WhileStmt, *dpl.ForStmt:
				if n.Position() == pos {
					inspect(n, func(n dpl.Node) bool {
						_, ret := n.(*dpl.ReturnStmt)
						found = found || ret
						return true
					})
				}
			}
			return true
		})
	}
	return found
}

// TestAnalyzerMatchesReference runs analyzerDiff over 2,500 generated
// programs, half of them with MIB calls, and the committed sources: the
// example agents, the diagnostics file, the optimizer and fuzz corpora.
func TestAnalyzerMatchesReference(t *testing.T) {
	b := analysis.LintBindings()
	for seed := range int64(2500) {
		analyzerDiff(t, fmt.Sprintf("seed %d", seed), dpl.GenProgram(seed, seed%2 == 0), b)
	}
	for name, src := range committedSources(t) {
		analyzerDiff(t, name, src, b)
	}
}

// FuzzAnalyzerMatchesReference explores the same property from
// generator seeds.
func FuzzAnalyzerMatchesReference(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed, seed%2 == 0)
	}
	b := analysis.LintBindings()
	f.Fuzz(func(t *testing.T, seed int64, mib bool) {
		analyzerDiff(t, fmt.Sprintf("seed %d", seed), dpl.GenProgram(seed, mib), b)
	})
}

// TestGlobalInductionUnbounded: a loop counted over a global is no
// counted loop, because a call in its body can reset it: bump does,
// and this loop never ends. The reference priced it bounded.
func TestGlobalInductionUnbounded(t *testing.T) {
	const src = `var g = 0;
func bump() { g = 0; }
func main() {
	for (g = 0; g < 10; g += 1) { bump(); }
}`
	b := analysis.LintBindings()
	prog, err := dpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if ref := refAnalyze(prog, b); ref.Cost.Unbounded {
		t.Fatalf("the reference priced it %v", ref.Cost)
	}
	_, rep, err := analysis.Translate(prog, b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cost.Unbounded {
		t.Fatalf("a loop over a global a call resets priced %v", rep.Cost)
	}
	vm := dpl.NewVM(dpl.MustCompile(src, b), b, dpl.WithMaxSteps(100_000))
	if _, err := vm.Run(context.Background(), "main"); !errors.Is(err, dpl.ErrStepQuota) {
		t.Fatalf("the loop ended: %v", err)
	}
}
