package experiments

import (
	"context"
	"fmt"
	"time"

	"mbd/internal/dpl"
)

// T1InterpreterOverhead is the Table 2.1 ablation: language-based agent
// systems of the paper's era (Safe-TCL, early Java) executed scripts by
// direct interpretation, while the MbD prototype translated DPs to
// object code once and ran instances from the repository. The table
// compares the same agents on this repository's tree-walking reference
// interpreter versus the bytecode VM.
func T1InterpreterOverhead() (*Table, error) {
	t := &Table{
		ID:      "T1",
		Title:   "Agent execution: direct interpretation vs translated (bytecode) delegated programs",
		Headers: []string{"workload", "interpreted", "compiled VM", "speedup", "one-time translate"},
	}
	workloads := []struct {
		name  string
		src   string
		entry string
	}{
		{"fib(20) recursion", `
func fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
func main() { return fib(20); }`, "main"},
		{"100k-iteration counter loop", `
func main() {
	var s = 0;
	for (var i = 0; i < 100000; i += 1) { s += i % 7; }
	return s;
}`, "main"},
		{"string/array processing", `
func main() {
	var words = split("the quick brown fox jumps over the lazy dog the end", " ");
	var freq = {};
	for (var r = 0; r < 500; r += 1) {
		for (var i = 0; i < len(words); i += 1) {
			var w = words[i];
			if (contains(freq, w)) { freq[w] = freq[w] + 1; } else { freq[w] = 1; }
		}
	}
	return freq["the"];
}`, "main"},
	}
	b := dpl.Std()
	ctx := context.Background()
	for _, w := range workloads {
		prog, err := dpl.Parse(w.src)
		if err != nil {
			return nil, err
		}
		translateStart := time.Now()
		compiled, err := dpl.Compile(prog, b)
		if err != nil {
			return nil, err
		}
		translateTime := time.Since(translateStart)

		it, err := dpl.NewInterp(prog, b)
		if err != nil {
			return nil, err
		}
		interpStart := time.Now()
		iv, err := it.Run(ctx, w.entry)
		if err != nil {
			return nil, err
		}
		interpTime := time.Since(interpStart)

		vm := dpl.NewVM(compiled, b)
		vmStart := time.Now()
		vv, err := vm.Run(ctx, w.entry)
		if err != nil {
			return nil, err
		}
		vmTime := time.Since(vmStart)

		if dpl.Format(iv) != dpl.Format(vv) {
			return nil, fmt.Errorf("t1: engines disagree on %s: %v vs %v", w.name, iv, vv)
		}
		t.AddRow(
			w.name,
			interpTime.Round(time.Microsecond).String(),
			vmTime.Round(time.Microsecond).String(),
			fmtRatio(float64(interpTime), float64(vmTime)),
			translateTime.Round(time.Microsecond).String(),
		)
	}
	t.AddNote("both engines pass the package's cross-check property test, so the speedup is pure execution-model difference")
	t.AddNote("translate-once is the repository model: the object code is stored at delegation time and amortized over every instantiation")
	return t, nil
}
