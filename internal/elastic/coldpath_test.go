package elastic

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mbd/internal/dpl"
)

// coldHealthSource is the i-th of a family of 43-line health functions
// shaped like the ones a manager delegates once and never again: six
// globals, three helpers, five MIB reads, float arithmetic, one report.
// The tag and the weights make every member's text, and so its program
// cache key, its own.
func coldHealthSource(i int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// health function cold-%d\nvar tag = \"cold-%d\";\n", i, i)
	for k, name := range []string{"wU", "wC", "wB", "wE", "bias"} {
		fmt.Fprintf(&b, "var %s = %d.%03d;\n", name, 1+k, (i*37+k*101)%1000)
	}
	b.WriteString(`
func ratio(part, whole) {
	if (whole <= 0) {
		return 0.0;
	}
	return float(part) / float(whole);
}

func clamp(x) {
	if (x < 0.0) {
		return 0.0;
	}
	if (x > 100.0) {
		return 100.0;
	}
	return x;
}

func score() {
	var ok = mibGet("1.3.6.1.4.1.45.1.3.2.1.0");
	var coll = mibGet("1.3.6.1.4.1.45.1.3.2.2.0");
	var bcast = mibGet("1.3.6.1.4.1.45.1.3.2.3.0");
	var pkts = mibGet("1.3.6.1.4.1.45.1.3.2.4.0");
	var errs = mibGet("1.3.6.1.4.1.45.1.3.2.5.0");
	var u = float(ok) / 10000000.0;
	var c = ratio(coll, pkts);
	var bc = ratio(bcast, pkts);
	var e = ratio(errs, pkts);
	return clamp(wU * u + wC * c + wB * bc + wE * e - bias);
}

func main() {
	var s = score();
	report(sprintf("%s score=%f", tag, s));
`)
	fmt.Fprintf(&b, "\treturn %d;\n}\n", 1000+i)
	return b.String()
}

// coldBindings is the standard table plus the one MIB primitive the
// health function calls.
func coldBindings() *dpl.Bindings {
	b := dpl.Std()
	b.Register("mibGet", 1, func(*dpl.Env, []dpl.Value) (dpl.Value, error) { return int64(12345678), nil })
	return b
}

// TestCachedProgramRetainsNoAST checks the shape of the heap behind a
// full program cache. The parsed program never leaves the translator,
// so no finalizer can be hung on it from here; what shows instead is
// the number of live objects each cached program costs. Object code,
// effects, cost and diagnostics come to 38.5 objects for a 43-line
// source. A report that still reaches its control-flow graph, and
// through the graph's statement pointers the whole AST, comes to 239.5.
func TestCachedProgramRetainsNoAST(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations make object ceilings meaningless")
	}
	const (
		sources = 300 // more than the cache holds, so it is full and has evicted
		names   = 64
		ceiling = 58 // 1.5x the 38.5 measured when this test was written
	)
	srcs := make([]string, sources)
	for i := range srcs {
		srcs[i] = coldHealthSource(i)
	}
	p := newProcess(t, Config{Bindings: coldBindings()})
	liveObjects := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapObjects
	}
	// One program in every name before the baseline, so the repository's
	// own records are not counted against the cache.
	for i := 0; i < names; i++ {
		if err := p.Delegate("mgr", fmt.Sprintf("dc%02d", i), "dpl", coldHealthSource(sources+i)); err != nil {
			t.Fatal(err)
		}
	}
	before, cachedBefore := liveObjects(), p.progCache.len()
	for i, src := range srcs {
		if err := p.Delegate("mgr", fmt.Sprintf("dc%02d", i%names), "dpl", src); err != nil {
			t.Fatal(err)
		}
	}
	after, cached := liveObjects(), p.progCache.len()
	if cached != defaultProgCacheSize {
		t.Fatalf("%d programs cached, want a full cache of %d", cached, defaultProgCacheSize)
	}
	per := float64(int64(after)-int64(before)) / float64(cached-cachedBefore)
	t.Logf("%.1f live objects per cached program", per)
	if per > ceiling {
		t.Errorf("%.1f live objects per cached program, want at most %d: a cache entry reaches more than object code and a report", per, ceiling)
	}
}

// TestColdAdmissionBudget holds what one cold admission allocates:
// parse, check, compile, analyse, optimise and admit a 43-line source
// with the program cache off. The ceilings are 10% above the figures
// measured when this test was written (544 allocations, 32,766 bytes);
// the same admission made 813 allocations and 75,756 bytes when the
// parser read from a token slice, every scope was a map and code grew
// by append.
func TestColdAdmissionBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations make allocation ceilings meaningless")
	}
	const (
		maxAllocs = 598
		maxBytes  = 36_000
		runs      = 200
	)
	p := newProcess(t, Config{Bindings: coldBindings(), ProgramCacheSize: -1})
	src := coldHealthSource(0)
	admit := func() {
		if err := p.Delegate("mgr", "cold", "dpl", src); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(runs, admit); n > maxAllocs {
		t.Errorf("a cold admission makes %.0f allocations, budget %d", n, maxAllocs)
	} else {
		t.Logf("%.0f allocations per cold admission", n)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		admit()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per > maxBytes {
		t.Errorf("a cold admission allocates %d bytes, budget %d", per, maxBytes)
	} else {
		t.Logf("%d bytes per cold admission", per)
	}
}
