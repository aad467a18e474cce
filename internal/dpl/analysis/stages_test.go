package analysis

import (
	"os"
	"path/filepath"
	"testing"

	"mbd/internal/dpl"
)

// BenchmarkColdStages times each stage a cold source delegation runs,
// on the delegate_cold workload's 43-line health function: parse (and
// release), compile (resolve and lower), diagnose (DPL001–DPL004 over the
// compiler's output), optimize, recover and price (effects and cost of
// the optimized code), and the structural proof admission records for
// the first run of the object code. Each op gets a fresh input, made with the
// timer stopped, because the stages rewrite what they are given, and
// works in a borrowed scratch, as admission does. A compile's code stays
// in the arrays it was written to until Optimize copies it out, so the
// compile stage, whose output is never optimized, pays for new arrays
// every op.
//
//	go test ./internal/dpl/analysis -run xxx -bench ColdStages -benchmem -benchtime 2000x
func BenchmarkColdStages(b *testing.B) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "mbd", "testdata", "delegate_cold.dpl"))
	if err != nil {
		b.Fatal(err)
	}
	src, bindings := string(raw), LintBindings()
	parse := func() *dpl.Program {
		prog, err := dpl.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		return prog
	}
	compile := func(prog *dpl.Program) *dpl.Compiled {
		obj, err := dpl.Compile(prog, bindings)
		if err != nil {
			b.Fatal(err)
		}
		return obj
	}
	// stage times the closure prepare makes, on a fresh input an op.
	stage := func(name string, prepare func() func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				b.StopTimer()
				run := prepare()
				b.StartTimer()
				run()
			}
		})
	}
	optimized := func() (*dpl.Program, *dpl.Compiled) {
		prog := parse()
		obj := compile(prog)
		dpl.Optimize(obj)
		return prog, obj
	}
	// The Translator parses into a borrowed scratch and releases it once
	// the program is translated; parse pays for that here.
	stage("parse", func() func() {
		return func() {
			s := Borrow()
			if _, err := s.Parse(src); err != nil {
				b.Fatal(err)
			}
			s.Release()
		}
	})
	stage("compile", func() func() {
		prog := parse()
		return func() {
			s := Borrow()
			if _, err := s.Compile(prog, bindings); err != nil {
				b.Fatal(err)
			}
			s.Release()
		}
	})
	stage("diagnose", func() func() {
		prog := parse()
		obj := compile(prog)
		return func() {
			var diags []dpl.Diagnostic
			s := Borrow()
			s.diagnose(prog, obj, &diags)
			s.Release()
		}
	})
	stage("optimize", func() func() {
		obj := compile(parse())
		return func() {
			s := Borrow()
			s.Optimize(obj)
			s.Release()
		}
	})
	stage("recover+price", func() func() {
		prog, obj := optimized()
		rep := &Report{Funcs: make([]*FuncInfo, len(prog.Funcs))}
		for i, f := range prog.Funcs {
			rep.Funcs[i] = &FuncInfo{Name: f.Name, Pos: f.Position()}
		}
		return func() {
			s := Borrow()
			s.RecoverEffects(rep, obj)
			s.Release()
		}
	})
	stage("verify", func() func() {
		_, obj := optimized()
		return func() {
			s := Borrow()
			if faults := s.VerifyStructure(obj); len(faults) > 0 {
				b.Fatal(faults)
			}
			s.Release()
		}
	})
}
