package dpl

import (
	"context"
	"math/rand"
	"strings"
	"testing"
)

func compileSrc(t *testing.T, src string, b *Bindings) *Compiled {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	c, err := Compile(prog, b)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	return c
}

func codeSize(c *Compiled) int {
	n := len(c.InitCode)
	for _, fn := range c.Funcs {
		n += len(fn.Code)
	}
	return n
}

// TestOptimizerPreservesSemantics is the optimizer's core property
// test: across hundreds of random programs, the optimized bytecode must
// produce exactly the result (value or error) of the unoptimized
// compile, and must still pass structural verification.
func TestOptimizerPreservesSemantics(t *testing.T) {
	b := Std()
	g := &progGen{r: rand.New(rand.NewSource(99))}
	for i := 0; i < 400; i++ {
		src := g.generate()
		raw := compileSrc(t, src, b)
		opt := compileSrc(t, src, b)
		st := Optimize(opt)
		if faults := new(Scratch).VerifyStructure(opt); len(faults) > 0 {
			t.Fatalf("optimized program %d fails verification: %v\n%s\n%s", i, faults[0], src, Disassemble(opt))
		}
		if codeSize(opt) > codeSize(raw) {
			t.Fatalf("optimizer grew program %d (%d -> %d instrs)", i, codeSize(raw), codeSize(opt))
		}
		rawVal, rawErr := NewVM(raw, b, WithMaxSteps(2_000_000)).Run(context.Background(), "main")
		optVal, optErr := NewVM(opt, b, WithMaxSteps(2_000_000)).Run(context.Background(), "main")
		if (rawErr == nil) != (optErr == nil) {
			t.Fatalf("optimizer changed error outcome for program %d (stats %+v):\nraw: %v\nopt: %v\n%s", i, st, rawErr, optErr, src)
		}
		if rawErr != nil && rawErr.Error() != optErr.Error() {
			t.Fatalf("optimizer changed error for program %d:\nraw: %v\nopt: %v\n%s", i, rawErr, optErr, src)
		}
		if rawErr == nil && !goEqual(rawVal, optVal) {
			t.Fatalf("optimizer changed result for program %d: raw=%v opt=%v\n%s", i, rawVal, optVal, src)
		}
	}
}

func TestOptimizerRewrites(t *testing.T) {
	b := Std()
	cases := []struct {
		name    string
		src     string
		want    any
		maxMain int // upper bound on main's instruction count after optimizing
	}{
		{"const fold", `func main() { return 1 + 2 * 3; }`, int64(7), 2},
		{"const branch", `func main() { if (true) { return 1; } return 2; }`, int64(1), 2},
		{"dead store", `func main() { var x = 5; return 1; }`, int64(1), 2},
		{"dead loop", `func main() { var n = 0; while (false) { n += 1; } return n; }`, int64(0), 2},
		{"propagation", `func main() { var x = 4; return x * x; }`, int64(16), 2},
		{"logic fold", `func main() { return true && 3 < 5; }`, true, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := compileSrc(t, tc.src, b)
			st := Optimize(c)
			if st == (OptStats{}) {
				t.Fatalf("optimizer did nothing:\n%s", Disassemble(c))
			}
			fi, _ := c.FuncIndex("main")
			main := c.Funcs[fi]
			if len(main.Code) > tc.maxMain {
				t.Errorf("main still has %d instrs (want <= %d):\n%s", len(main.Code), tc.maxMain, Disassemble(c))
			}
			got, err := NewVM(c, b).Run(context.Background(), "main")
			if err != nil {
				t.Fatal(err)
			}
			if !goEqual(got, tc.want) {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
}

// TestOptimizerKeepsRuntimeErrors: folding must not evaluate
// expressions whose evaluation faults — the error belongs to run time.
func TestOptimizerKeepsRuntimeErrors(t *testing.T) {
	b := Std()
	for _, src := range []string{
		`func main() { return 1 / 0; }`,
		`func main() { return 5 % 0; }`,
		`func main() { return -"s"; }`,
		`func main() { return 1 + "s"; }`,
		`func main() { return "a" < 1; }`,
	} {
		c := compileSrc(t, src, b)
		Optimize(c)
		if _, err := NewVM(c, b).Run(context.Background(), "main"); err == nil {
			t.Errorf("optimized %q lost its runtime error", src)
		}
	}
}

// TestOptimizerFoldsChains: a constant prefix of a + chain folds into
// one constant, as it did when the chain was pairwise BIN +, and an
// all-constant chain folds to one CONST; a fold that would fail is left
// to run time.
func TestOptimizerFoldsChains(t *testing.T) {
	b := Std()
	cases := []struct{ src, want string }{
		{`func main() { return "1.3" + ".6" + ".1" + ".2"; }`, "CONST \"1.3.6.1.2\"\nRET"},
		{`func main(x) { return "1.3" + ".6" + x + ".0"; }`, "CONST \"1.3.6\"\nLOADL 0\nADDC\nCONST \".0\"\nADDN 3\nRET"},
		{`func main(x) { return "1." + "3." + x; }`, "CONST \"1.3.\"\nLOADL 0\nBIN '+'\nRET"},
		{`func main(x) { return x + "1." + "3."; }`, "LOADL 0\nCONST \"1.\"\nADDC\nCONST \"3.\"\nADDN 3\nRET"},
		{`func main() { return 1 + "a" + "b"; }`, "CONST 1\nCONST \"a\"\nADDC\nCONST \"b\"\nADDN 3\nRET"},
		// No string-literal operand: pairwise, so a head of two locals fuses.
		{`func main(a, b, c) { return a + b + c; }`, "LLLB 0 '+' 1\nLOADL 2\nBIN '+'\nRET"},
		{`func main(a, b) { return a + 1 + b + 2.5; }`, "LLCB 0 '+' 1\nLOADL 1\nBIN '+'\nCONST 2.5\nBIN '+'\nRET"},
	}
	for _, c := range cases {
		prog := compileSrc(t, c.src, b)
		Optimize(prog)
		var got []string
		for _, in := range prog.Funcs[0].Code {
			got = append(got, strings.Join(strings.Fields(FormatInstr(prog, in)), " "))
		}
		if g := strings.Join(got, "\n"); g != c.want {
			t.Errorf("%s optimized to\n%s\nwant\n%s", c.src, g, c.want)
		}
		if faults := new(Scratch).VerifyStructure(prog); len(faults) > 0 {
			t.Errorf("%s: folded chain fails verification: %v", c.src, faults[0])
		}
	}
}

// TestOptimizerKeepsGlobals: global stores are observable after the run
// and must survive even when never read inside the program.
func TestOptimizerKeepsGlobals(t *testing.T) {
	b := Std()
	c := compileSrc(t, `var g = 2 + 3; func main() { return 0; }`, b)
	Optimize(c)
	vm := NewVM(c, b)
	if _, err := vm.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if v, ok := global(vm, "g"); !ok || !valueEqual(v, Int(5)) {
		t.Fatalf("global g = %v after optimized run, want 5", v)
	}
}

func TestVerifyStructureFaults(t *testing.T) {
	fn := func(code ...Instr) *Compiled {
		return &Compiled{
			Funcs: []*CompiledFunc{{Name: "main", Code: code}},
		}
	}
	cases := []struct {
		name string
		c    *Compiled
		kind FaultKind
	}{
		{"const oob", fn(Instr{Op: OpConst, A: 3}, Instr{Op: OpReturn}), FaultOperand},
		{"global oob", fn(Instr{Op: OpLoadG, A: 0}, Instr{Op: OpReturn}), FaultOperand},
		{"local oob", fn(Instr{Op: OpLoadL, A: 2}, Instr{Op: OpReturn}), FaultOperand},
		{"jump oob", fn(Instr{Op: OpJump, A: 9}), FaultJump},
		{"negative jump", fn(Instr{Op: OpNil}, Instr{Op: OpJumpFalse, A: -1}, Instr{Op: OpReturnNil}), FaultJump},
		{"underflow", fn(Instr{Op: OpPop}, Instr{Op: OpReturnNil}), FaultStack},
		{"return empty", fn(Instr{Op: OpReturn}), FaultStack},
		{"bad opcode", fn(Instr{Op: Opcode(99)}), FaultOpcode},
		{"bad bin op", fn(Instr{Op: OpNil}, Instr{Op: OpNil}, Instr{Op: OpBin, A: int32(TokAssign)}, Instr{Op: OpReturn}), FaultOperand},
		{"bad call", fn(Instr{Op: OpCall, A: 5, B: 0}, Instr{Op: OpReturn}), FaultOperand},
		{"bad host", fn(Instr{Op: OpCallHost, A: 0, B: 0}, Instr{Op: OpReturn}), FaultOperand},
		{"chain of one", fn(Instr{Op: OpNil}, Instr{Op: OpAddN, A: 1}, Instr{Op: OpReturn}), FaultOperand},
		{"chain of none", fn(Instr{Op: OpNil}, Instr{Op: OpAddN, A: 0}, Instr{Op: OpReturn}), FaultOperand},
		{"chain past the stack", fn(Instr{Op: OpNil}, Instr{Op: OpNil}, Instr{Op: OpAddN, A: 3}, Instr{Op: OpReturn}), FaultStack},
		{"ADDC on one value", fn(Instr{Op: OpNil}, Instr{Op: OpAddC}, Instr{Op: OpReturn}), FaultStack},
		{"bad frame", &Compiled{
			Funcs: []*CompiledFunc{{Name: "main", NumParams: 2, NumLocals: 1, Code: []Instr{{Op: OpReturnNil}}}},
		}, FaultOperand},
		{"depth mismatch at join", fn(
			// Path A pushes one value before the join, path B pushes none.
			Instr{Op: OpNil},
			Instr{Op: OpJumpFalse, A: 3},
			Instr{Op: OpNil},
			Instr{Op: OpReturnNil},
		), FaultStack},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faults := new(Scratch).VerifyStructure(tc.c)
			if len(faults) == 0 {
				t.Fatal("no faults reported")
			}
			found := false
			for _, f := range faults {
				if f.Kind == tc.kind {
					found = true
				}
			}
			if !found {
				t.Errorf("no %v fault among %v", tc.kind, faults)
			}
			// The VM must refuse to run what the verifier rejects.
			if _, err := NewVM(tc.c, NewBindings()).Run(context.Background(), "main"); err == nil {
				t.Error("VM ran a structurally invalid program")
			} else if !strings.Contains(err.Error(), "structurally invalid") {
				t.Errorf("unexpected refusal error: %v", err)
			}
		})
	}
}

// TestVerifyStructureAcceptsCompilerOutput: everything the compiler
// emits must pass, optimized or not.
func TestVerifyStructureAcceptsCompilerOutput(t *testing.T) {
	b := Std()
	g := &progGen{r: rand.New(rand.NewSource(7))}
	for i := 0; i < 50; i++ {
		c := compileSrc(t, g.generate(), b)
		if faults := new(Scratch).VerifyStructure(c); len(faults) > 0 {
			t.Fatalf("compiler output rejected: %v", faults[0])
		}
		Optimize(c)
		if faults := new(Scratch).VerifyStructure(c); len(faults) > 0 {
			t.Fatalf("optimizer output rejected: %v", faults[0])
		}
	}
}

// TestFuseSuperinstructions pins the generation-3 fusion rewrites: each
// dominant pattern collapses to its fused opcode, the fused program
// still verifies, runs to the same value, and survives the
// disassemble/assemble round trip. The semantic property test above
// covers fusion across random programs; this test pins which opcode
// each shape becomes.
func TestFuseSuperinstructions(t *testing.T) {
	b := Std()
	cases := []struct {
		name string
		src  string
		op   Opcode // fused opcode that must appear in main
		want any
	}{
		{
			"local-const arithmetic", `func main(n) { return n * 3 + n; }`,
			OpLoadLConstBin, nil,
		},
		{
			"local-local arithmetic", `func main(a, b) { return a - b; }`,
			OpLoadLLoadLBin, nil,
		},
		{
			// The comparison's left operand is itself fused (LLCB), so
			// the trailing BIN '>' has no LoadL/Const prefix to join and
			// pairs with the JF instead. A plain `n > 0` condition fuses
			// into LLCB first — longest-match wins — and never leaves a
			// bare BIN;JF.
			"compare-and-branch",
			`func main() { var n = len("abcdefghi"); while (n - 1 > 0) { n -= 2; } return n; }`,
			OpBinJumpFalse, int64(1),
		},
		{
			"increment",
			`func main() { var i = 0; var acc = 0; while (i < 5) { i += 1; acc = i; } return acc; }`,
			OpIncL, int64(5),
		},
		{
			"decrement",
			`func main() { var i = 6; while (i > 0) { i -= 2; } return i; }`,
			OpDecL, int64(0),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := compileSrc(t, tc.src, b)
			st := Optimize(c)
			if st.Fused == 0 {
				t.Fatalf("no fusions recorded (stats %+v):\n%s", st, Disassemble(c))
			}
			fi, _ := c.FuncIndex("main")
			main := c.Funcs[fi]
			found := false
			for _, in := range main.Code {
				if in.Op == tc.op {
					found = true
				}
			}
			if !found {
				t.Fatalf("no %s in main:\n%s", tc.op, Disassemble(c))
			}
			if faults := new(Scratch).VerifyStructure(c); len(faults) > 0 {
				t.Fatalf("fused program fails verification: %v", faults[0])
			}
			if tc.want != nil {
				got, err := NewVM(c, b).Run(context.Background(), "main")
				if err != nil {
					t.Fatal(err)
				}
				if !goEqual(got, tc.want) {
					t.Errorf("got %v, want %v", got, tc.want)
				}
			}
			// The listing round trip must survive fused opcodes.
			listing := Disassemble(c)
			back, err := Assemble(listing)
			if err != nil {
				t.Fatalf("assemble fused listing: %v\n%s", err, listing)
			}
			if got := Disassemble(back); got != listing {
				t.Errorf("round trip diverged:\n-- first --\n%s\n-- second --\n%s", listing, got)
			}
		})
	}
}

// TestFusionSkipsJumpTargets: an instruction pattern whose interior is
// a jump target must not fuse — the branch would land mid-pattern.
func TestFusionSkipsJumpTargets(t *testing.T) {
	b := Std()
	// while-loop conditions jump back to the comparison head; the
	// optimizer must still produce correct code (covered by the
	// semantics test) and every fused jump target must land on an
	// instruction boundary that exists.
	src := `func main() {
		var i = 0;
		var acc = 0;
		while (i < 8) {
			if (i % 2 == 0) { acc += i; }
			i += 1;
		}
		return acc;
	}`
	c := compileSrc(t, src, b)
	Optimize(c)
	if faults := new(Scratch).VerifyStructure(c); len(faults) > 0 {
		t.Fatalf("fused loop fails verification: %v\n%s", faults[0], Disassemble(c))
	}
	got, err := NewVM(c, b).Run(context.Background(), "main")
	if err != nil {
		t.Fatal(err)
	}
	if !goEqual(got, int64(12)) {
		t.Errorf("got %v, want 12", got)
	}
}
