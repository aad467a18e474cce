package elastic

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
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
	b.Register("mibGet", 1, func(*dpl.Env, []dpl.Value) (dpl.Value, error) { return dpl.Int(12345678), nil })
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
	before, cachedBefore := liveObjects(), cachedPrograms(p)
	for i, src := range srcs {
		if err := p.Delegate("mgr", fmt.Sprintf("dc%02d", i%names), "dpl", src); err != nil {
			t.Fatal(err)
		}
	}
	after, cached := liveObjects(), cachedPrograms(p)
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
// with the program cache off. The ceilings are 5% above the 25
// allocations and 6,940 bytes measured once the parser built its nodes
// in slabs that served the next parse, the passes reused their working
// memory, the compiler's position table included, and the effects of
// a program's functions were copied out in one array; with every pass
// in one scratch an admission borrows, it reads 24 and 5,233. The
// same admission made 219 allocations and 22,455 bytes with a node, and
// every pass's buffers, allocated per program; 468 and 28,747 once one
// resolver bound every name; and 813 and 75,756 when the parser read
// from a token slice, every scope was a map and code grew by append.
func TestColdAdmissionBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations make allocation ceilings meaningless")
	}
	const (
		maxAllocs = 26
		maxBytes  = 7_290
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

// TestTranslationOutlivesItsAST: the Translator parses each program
// into a scratch, whose passes work in it too, and releases it to the
// next admission. What a translation returns must reach none of it:
// translations made from several goroutines at once, each parse
// reusing the nodes of one before, read back after the last the same
// as translations on scratches of their own.
func TestTranslationOutlivesItsAST(t *testing.T) {
	bindings := analysis.LintBindings()
	srcs := []string{
		"func main() { return x; }", // rejected by the Translator's rules
		"func main() { return 1 }",  // does not parse
		`var s = "a\tb"; func main() { var m = {"k": [s, "\"q\""]}; return m["k"][1] + s; }`,
	}
	agents, err := filepath.Glob(filepath.Join("..", "..", "examples", "agents", "*.dpl"))
	if err != nil || len(agents) == 0 {
		t.Fatalf("no example agents: %v", err)
	}
	for _, file := range agents {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	for i := range 20 {
		srcs = append(srcs, coldHealthSource(i))
	}
	describe := func(obj *dpl.Compiled, rep *analysis.Report, err error) string {
		if err != nil {
			return err.Error()
		}
		var b strings.Builder
		b.WriteString(dpl.Disassemble(obj))
		fmt.Fprintf(&b, "%s %+v %+v\n", rep.Effects.String(), rep.Cost, rep.Verdict())
		for _, d := range rep.Diags {
			fmt.Fprintf(&b, "%s\n", d)
		}
		for _, f := range rep.Funcs {
			fmt.Fprintf(&b, "%s %s %s\n", f.Name, f.Pos, f.Effects.String())
		}
		return b.String()
	}
	type result struct {
		obj *dpl.Compiled
		rep *analysis.Report
		err error
	}
	tr := NewTranslator(bindings)
	const workers = 4
	translated := make([][]result, workers)
	var wg sync.WaitGroup
	for w := range workers {
		translated[w] = make([]result, len(srcs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range srcs {
				i := (k + w*7) % len(srcs)
				obj, rep, err := tr.TranslateAnalyzed("dpl", srcs[i])
				translated[w][i] = result{obj, rep, err}
			}
		}()
	}
	wg.Wait()
	for i, src := range srcs {
		prog, err := dpl.Parse(src)
		var obj *dpl.Compiled
		var rep *analysis.Report
		if err == nil {
			obj, rep, err = analysis.Translate(prog, bindings)
		}
		if rej, ok := err.(*dpl.Error); ok {
			err = &RejectError{Diags: rej.Diags}
		}
		want := describe(obj, rep, err)
		for w := range workers {
			if got := describe(translated[w][i].obj, translated[w][i].rep, translated[w][i].err); got != want {
				t.Errorf("source %d, goroutine %d, read back after later parses:\n%s\nwant\n%s", i, w, got, want)
			}
		}
	}
}

// TestTranslationKeepsLittle: the scratch a translation releases is kept
// for the next only within its bound, so a huge delegation leaves little
// resident. One collection after the Translator takes the 22 KB source
// of 2,000 (a && a) operands in one string chain, the live heap is at
// most 4 MiB above where it started, the translation's own object code
// and report included. With a pool per pass, each keeping what the
// largest program had grown it to, it was 98 MB.
func TestTranslationKeepsLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory makes heap ceilings meaningless")
	}
	const ceiling = 4 << 20
	var b strings.Builder
	b.WriteString(`func main() { var a = 1; var s = ""`)
	for range 2000 {
		b.WriteString(" + (a && a)")
	}
	b.WriteString("; return s; }")
	tr := NewTranslator(analysis.LintBindings())
	live := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	runtime.GC()
	before := live()
	obj, rep, err := tr.TranslateAnalyzed("dpl", b.String())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	after := live()
	runtime.KeepAlive(obj)
	runtime.KeepAlive(rep)
	t.Logf("live heap %d KB above where it started", (int64(after)-int64(before))>>10)
	if after > before+ceiling {
		t.Errorf("live heap %d KB above where it started, want at most %d KB", (after-before)>>10, ceiling>>10)
	}
}
