package dpl_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
	"mbd/internal/dpl/verify"
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

// repeated is head, then body n times with %d the repetition, then
// tail.
func repeated(head, body, tail string, n int) string {
	var b strings.Builder
	b.WriteString(head)
	for i := range n {
		fmt.Fprintf(&b, body, i)
	}
	b.WriteString(tail)
	return b.String()
}

// loopHeads is an artifact of h loops in a row at stack depth d, each
// headed by an unknown test: the walker enters each head with d slots
// it knows nothing of, and the test's forward edge carries them all.
func loopHeads(d, h int) *dpl.CompiledProgram {
	code := make([]dpl.Instr, d, d+3*h+1)
	for i := range code {
		code[i] = dpl.Instr{Op: dpl.OpNil}
	}
	for range h {
		head := int32(len(code))
		code = append(code, dpl.Instr{Op: dpl.OpLoadL}, dpl.Instr{Op: dpl.OpJumpFalse, A: head + 3}, dpl.Instr{Op: dpl.OpJump, A: head})
	}
	code = append(code, dpl.Instr{Op: dpl.OpReturnNil})
	return &dpl.CompiledProgram{
		Version: dpl.CompilerVersion,
		Verdict: dpl.Verdict{CostUnbounded: true},
		Object:  &dpl.Compiled{Funcs: []*dpl.CompiledFunc{{Name: "main", NumLocals: 1, Code: code}}},
	}
}

// TestAdmissionLinear: what admitting a delegation allocates grows in
// step with its size, for sources through the Translator and for
// artifacts through the bytecode verifier. An abstract walker that
// copied the whole stack into each join made the (a && a) chain
// quadratic: 6.6 MB at 250 operands, 496 MB at 2,000. One that saved
// every slot anew after each loop head made the loop-head artifact
// cost depth times heads: 64 times the bytes at 8 times the size.
func TestAdmissionLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations skew the byte counts")
	}
	const n = 250
	bindings := analysis.LintBindings()
	translate := func(src string) func() {
		return func() {
			prog, err := dpl.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := analysis.Translate(prog, bindings); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, f := range []struct {
		name  string
		admit func(n int) func()
	}{
		{"(a && a) chain", func(n int) func() { return translate(andChain(n)) }},
		{"string-literal chain", func(n int) func() {
			return translate(repeated(`func main() { var s = ""`, ` + "s%d"`, "; return s; }", n))
		}},
		{"numeric chain", func(n int) func() {
			return translate(repeated(`func main() { var a = 1; var x = a`, " + %d", "; return x; }", n))
		}},
		{"nested ifs", func(n int) func() {
			return translate(repeated("func main() { var a = 1;", " if (a > %d) {", " a = 0;"+strings.Repeat(" }", n)+" return a; }", n))
		}},
		{"many loops", func(n int) func() {
			return translate(repeated("func main() { var a = 0; var i = 0;", " for (i = 0; i < %d; i += 1) { a += i; }", " return a; }", n))
		}},
		{"many locals", func(n int) func() {
			return translate(repeated("func main() { var v = 1;", " var v%d = v + 1;", " return v; }", n))
		}},
		{"many functions", func(n int) func() {
			return translate(repeated("func f(x) { return x; }", " func f%d(x) { return f(x) + 1; }", " func main() { return f(1); }", n))
		}},
		{"loop-head artifact", func(n int) func() {
			cp := loopHeads(n, n)
			return func() {
				if err := verify.Verify(cp, dpl.NewBindings()).Err(); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		small, large := allocated(f.admit(n)), allocated(f.admit(8*n))
		t.Logf("%s: %d KB at %d, %d KB at %d (%.1fx)", f.name, small>>10, n, large>>10, 8*n, float64(large)/float64(small))
		if large > 10*small {
			t.Errorf("%s: 8x the size allocates %.1fx the bytes, want at most 10x", f.name, float64(large)/float64(small))
		}
	}
}

// allocated returns the bytes admit allocates.
func allocated(admit func()) uint64 {
	// Two collections empty the scratch pool, so each admission grows
	// its own from nothing.
	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	admit()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}
