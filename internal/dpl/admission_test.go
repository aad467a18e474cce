package dpl_test

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
	"mbd/internal/elastic"
)

// TestStructureProvedAtAdmission: both admission paths, source through
// the Translator and an artifact through the bytecode verifier, record
// the structural proof on the admitting goroutine, so an instance's
// first run finds the program already proved.
func TestStructureProvedAtAdmission(t *testing.T) {
	p := elastic.NewProcess(elastic.Config{})
	defer p.Stop()
	const src = `var k = 3; func twice(x) { return 2 * x; } func main() { return twice(k) + 1; }`
	if err := p.Delegate("mgr", "src", "dpl", src); err != nil {
		t.Fatal(err)
	}
	dp, _ := p.Repository().Lookup("src")
	blob, err := dp.Program.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DelegateCompiled("mgr", "bin", blob); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, name := range []string{"src", "bin"} {
		dp, _ := p.Repository().Lookup(name)
		if !dp.Object.StructureProved() {
			t.Fatalf("%s: admitted without a recorded structural proof; its first run would prove it", name)
		}
		d, err := p.Instantiate("mgr", name, "main")
		if err != nil {
			t.Fatal(err)
		}
		if v, err := d.Wait(ctx); err != nil || v != int64(7) {
			t.Fatalf("%s = %v, %v, want 7", name, v, err)
		}
	}
}

// andChain is a delegation of n (a && a) operands in one string chain:
// the chain keeps a string on the stack per operand, and each operand's
// short circuit is a forward edge across all of them.
func andChain(n int) string {
	var b strings.Builder
	b.WriteString(`func main() { var a = 1; var s = ""`)
	for range n {
		b.WriteString(" + (a && a)")
	}
	b.WriteString("; return s; }")
	return b.String()
}

// TestAdmissionLinear: what parsing and translating a delegation
// allocates grows in step with its source. An abstract walker that
// copied the whole stack into each join made the (a && a) chain
// quadratic: 6.6 MB at 250 operands, 496 MB at 2,000.
func TestAdmissionLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations skew the byte counts")
	}
	const n = 250
	bindings := analysis.LintBindings()
	allocated := func(src string) uint64 {
		// Two collections empty the scratch pool, so each translation
		// grows its own from nothing.
		runtime.GC()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		prog, err := dpl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := analysis.Translate(prog, bindings); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	small, large := allocated(andChain(n)), allocated(andChain(8*n))
	t.Logf("%d operands: %d KB; %d operands: %d KB (%.1fx)", n, small>>10, 8*n, large>>10, float64(large)/float64(small))
	if large > 10*small {
		t.Errorf("8x the operands allocates %.1fx the bytes, want at most 10x", float64(large)/float64(small))
	}
}
