package dpl

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// goEqual reports whether two Go values, as Run takes and returns them,
// hold equal DPL values.
func goEqual(a, b any) bool {
	x, errX := FromGo(a)
	y, errY := FromGo(b)
	return errX == nil && errY == nil && valueEqual(x, y)
}

// run compiles and executes src's main() with the standard bindings
// plus any extra registrations applied by mod.
func run(t *testing.T, src string, mod func(*Bindings), args ...any) (any, error) {
	t.Helper()
	b := Std()
	if mod != nil {
		mod(b)
	}
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	compiled, err := Compile(prog, b)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	vm := NewVM(compiled, b)
	return vm.Run(context.Background(), "main", args...)
}

func mustRun(t *testing.T, src string, args ...any) any {
	t.Helper()
	v, err := run(t, src, nil, args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		expr string
		want any
	}{
		{`1 + 2 * 3`, int64(7)},
		{`(1 + 2) * 3`, int64(9)},
		{`10 / 3`, int64(3)},
		{`10 % 3`, int64(1)},
		{`10.0 / 4`, 2.5},
		{`1 + 2.5`, 3.5},
		{`-5 + 2`, int64(-3)},
		{`-(2 * 3)`, int64(-6)},
		{`"a" + "b"`, "ab"},
		{`1 < 2`, true},
		{`2 <= 1`, false},
		{`"abc" < "abd"`, true},
		{`1 == 1.0`, true},
		{`1 != 2`, true},
		{`"x" == "x"`, true},
		{`nil == nil`, true},
		{`1 == "1"`, false},
		{`true && false`, false},
		{`true || false`, true},
		{`!true`, false},
		{`!0`, true},
		{`1 > 0 && 2 > 1 && 3 > 2`, true},
	}
	for _, tt := range tests {
		got := mustRun(t, `func main() { return `+tt.expr+`; }`)
		if !goEqual(got, tt.want) {
			t.Errorf("%s = %v (%T), want %v", tt.expr, got, got, tt.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	src := `
var calls = 0;
func bump() { calls += 1; return true; }
func main() {
	var a = false && bump();
	var b = true || bump();
	return calls;
}`
	if got := mustRun(t, src); got != int64(0) {
		t.Fatalf("short-circuit evaluated RHS: calls = %v", got)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
func main() {
	var total = 0;
	for (var i = 0; i < 10; i += 1) {
		if (i % 2 == 0) { continue; }
		if (i == 9) { break; }
		total += i;
	}
	var j = 0;
	while (j < 5) { j += 1; }
	return total * 100 + j;
}`
	// odd i < 9: 1+3+5+7 = 16 → 1605
	if got := mustRun(t, src); got != int64(1605) {
		t.Fatalf("control flow = %v, want 1605", got)
	}
}

func TestNestedLoopsAndShadowing(t *testing.T) {
	src := `
func main() {
	var sum = 0;
	for (var i = 0; i < 3; i += 1) {
		for (var j = 0; j < 3; j += 1) {
			if (j == 2) { break; }
			sum += i * 10 + j;
		}
	}
	var x = 1;
	{
		var x = 100;
		sum += x;
	}
	sum += x;
	return sum;
}`
	// inner pairs: (0,0)(0,1)(1,0)(1,1)(2,0)(2,1) → 0+1+10+11+20+21=63; +100+1=164
	if got := mustRun(t, src); got != int64(164) {
		t.Fatalf("= %v, want 164", got)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	src := `
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() { return fib(15); }`
	if got := mustRun(t, src); got != int64(610) {
		t.Fatalf("fib(15) = %v, want 610", got)
	}
}

func TestArraysAndMaps(t *testing.T) {
	src := `
func main() {
	var a = [1, 2, 3];
	a[1] = 20;
	append(a, 4);
	var m = {"x": 1, "y": 2};
	m["z"] = a[1] + a[3];
	var ks = keys(m);
	return str(a) + "|" + str(m) + "|" + str(len(ks));
}`
	want := `[1, 20, 3, 4]|{"x": 1, "y": 2, "z": 24}|3`
	if got := mustRun(t, src); got != want {
		t.Fatalf("= %q, want %q", got, want)
	}
}

func TestArrayReferenceSemantics(t *testing.T) {
	src := `
func mutate(a) { a[0] = 99; }
func main() {
	var a = [1];
	mutate(a);
	return a[0];
}`
	if got := mustRun(t, src); got != int64(99) {
		t.Fatalf("= %v, want 99 (arrays must be references)", got)
	}
}

func TestGlobals(t *testing.T) {
	src := `
var counter = 10;
var doubled = counter * 2;
func bump() { counter += 1; }
func main() {
	bump(); bump();
	return counter * 1000 + doubled;
}`
	if got := mustRun(t, src); got != int64(12020) {
		t.Fatalf("globals = %v, want 12020", got)
	}
}

func TestEntryArgs(t *testing.T) {
	src := `func main(a, b) { return a + b; }`
	got, err := run(t, src, nil, int64(3), int64(4))
	if err != nil || got != int64(7) {
		t.Fatalf("main(3,4) = %v, %v", got, err)
	}
	if _, err := run(t, src, nil, int64(1)); err == nil {
		t.Fatal("wrong arg count accepted")
	}
}

func TestMissingEntry(t *testing.T) {
	if _, err := run(t, `func helper() {}`, nil); err == nil || !strings.Contains(err.Error(), "no entry function") {
		t.Fatalf("err = %v", err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`func main() { return 1 / 0; }`, "division by zero"},
		{`func main() { return 1 % 0; }`, "modulo by zero"},
		{`func main() { return 1.0 / 0.0; }`, "division by zero"},
		{`func main() { var a = [1]; return a[5]; }`, "out of range"},
		{`func main() { var a = [1]; return a[-1]; }`, "out of range"},
		{`func main() { var a = [1]; return a["x"]; }`, "index must be int"},
		{`func main() { return 5[0]; }`, "cannot index"},
		{`func main() { return "a" + 1; }`, "cannot add"},
		{`func main() { return -"x"; }`, "cannot negate"},
		{`func main() { return 1 < "x"; }`, "invalid operands"},
		{`func main() { var m = {1: 2}; }`, "map key must be string"},
		{`func main() { return 1.5 % 2.0; }`, "integer operands"},
	}
	for _, c := range cases {
		_, err := run(t, c.src, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%q) err = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestMapMissingKeyIsNil(t *testing.T) {
	got := mustRun(t, `func main() { var m = {"a": 1}; return m["missing"] == nil; }`)
	if got != true {
		t.Fatalf("= %v", got)
	}
}

func TestStringIndexing(t *testing.T) {
	got := mustRun(t, `func main() { return "AB"[1]; }`)
	if got != int64('B') {
		t.Fatalf("= %v, want 66", got)
	}
}

func TestStepQuota(t *testing.T) {
	b := Std()
	compiled := MustCompile(`func main() { while (true) {} }`, b)
	vm := NewVM(compiled, b, WithMaxSteps(10_000))
	_, err := vm.Run(context.Background(), "main")
	if !errors.Is(err, ErrStepQuota) {
		t.Fatalf("err = %v, want ErrStepQuota", err)
	}
	if vm.Steps() < 10_000 {
		t.Fatalf("steps = %d", vm.Steps())
	}
}

// TestStepQuotaWithinOneWindow: the quota trips at most one gate window
// past the limit, in a tight loop, a loop of calls and a loop of host
// calls alike.
func TestStepQuotaWithinOneWindow(t *testing.T) {
	b := Std()
	for _, src := range []string{
		`func main() { var i = 0; while (true) { i = i + 1; } }`,
		`func f(x) { return x + 1; } func main() { var i = 0; while (true) { i = f(i); } }`,
		`func main() { var i = 0; while (true) { i = len(str(i)); } }`,
	} {
		vm := NewVM(MustCompile(src, b), b, WithMaxSteps(10_000))
		if _, err := vm.Run(context.Background(), "main"); !errors.Is(err, ErrStepQuota) {
			t.Fatalf("%s: err = %v, want ErrStepQuota", src, err)
		}
		if s := vm.Steps(); s <= 10_000 || s > 10_000+gateMask+1 {
			t.Fatalf("%s: quota tripped at %d steps, want within one window of 10000", src, s)
		}
	}
}

func TestStackOverflow(t *testing.T) {
	_, err := run(t, `func f() { return f(); } func main() { return f(); }`, nil)
	if !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("err = %v, want ErrStackOverflow", err)
	}
}

func TestTerminateStopsInfiniteLoop(t *testing.T) {
	b := Std()
	compiled := MustCompile(`func main() { while (true) {} }`, b)
	ctrl := &Control{}
	vm := NewVM(compiled, b, WithControl(ctrl))
	done := make(chan error, 1)
	go func() {
		_, err := vm.Run(context.Background(), "main")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	ctrl.Terminate()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTerminated) {
			t.Fatalf("err = %v, want ErrTerminated", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("terminate did not stop the loop")
	}
}

func TestSuspendResume(t *testing.T) {
	b := Std()
	compiled := MustCompile(`
var n = 0;
func main() { while (n < 100000000) { n += 1; } return n; }`, b)
	ctrl := &Control{}
	vm := NewVM(compiled, b, WithControl(ctrl))
	done := make(chan error, 1)
	go func() {
		_, err := vm.Run(context.Background(), "main")
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	ctrl.Suspend()
	// Give the gate time to engage, then confirm no progress while
	// suspended.
	time.Sleep(5 * time.Millisecond)
	s1 := vm.Steps()
	time.Sleep(20 * time.Millisecond)
	s2 := vm.Steps()
	if s2 != s1 {
		t.Fatalf("VM advanced %d steps while suspended", s2-s1)
	}
	if got := ctrl.State(); got != "suspended" {
		t.Fatalf("state = %q", got)
	}
	ctrl.Resume()
	time.Sleep(5 * time.Millisecond)
	if vm.Steps() == s2 {
		t.Fatal("VM did not resume")
	}
	ctrl.Terminate()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("terminate after resume did not stop the VM")
	}
}

func TestContextCancelUnblocksSuspended(t *testing.T) {
	b := Std()
	compiled := MustCompile(`func main() { while (true) {} }`, b)
	ctrl := &Control{}
	vm := NewVM(compiled, b, WithControl(ctrl))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := vm.Run(ctx, "main")
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	ctrl.Suspend()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock suspended VM")
	}
}

func TestHostFunctionEnvAndErrors(t *testing.T) {
	var sawVM *VM
	got, err := run(t, `func main() { return probe(21); }`, func(b *Bindings) {
		b.Register("probe", 1, func(env *Env, args []Value) (Value, error) {
			sawVM = env.VM
			n, _ := args[0].AsInt()
			return Int(n * 2), nil
		})
	})
	if err != nil || got != int64(42) {
		t.Fatalf("probe = %v, %v", got, err)
	}
	if sawVM == nil {
		t.Fatal("host function did not receive the VM")
	}
	_, err = run(t, `func main() { fail(); }`, func(b *Bindings) {
		b.Register("fail", 0, func(*Env, []Value) (Value, error) {
			return Value{}, errors.New("host exploded")
		})
	})
	if err == nil || !strings.Contains(err.Error(), "host exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestGlobalInspection(t *testing.T) {
	b := Std()
	compiled := MustCompile(`var health = 0.75; func main() { return nil; }`, b)
	vm := NewVM(compiled, b)
	if _, err := vm.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	v, ok := global(vm, "health")
	if f, _ := v.AsNumber(); !ok || v.Kind() != KindFloat || f != 0.75 {
		t.Fatalf("global health = %v, %v", v, ok)
	}
	if _, ok := global(vm, "nope"); ok {
		t.Fatal("bogus global found")
	}
}

// global reads vm's global variable name after a run.
func global(vm *VM, name string) (Value, bool) {
	for i, n := range vm.prog.GlobalNames {
		if n == name {
			return vm.globals[i], true
		}
	}
	return Value{}, false
}

func TestBuiltins(t *testing.T) {
	tests := []struct {
		expr string
		want any
	}{
		{`len("hello")`, int64(5)},
		{`len([1,2])`, int64(2)},
		{`len({"a":1})`, int64(1)},
		{`str(12)`, "12"},
		{`str(1.5)`, "1.5"},
		{`str(true)`, "true"},
		{`str(nil)`, "nil"},
		{`int(3.9)`, int64(3)},
		{`int("42")`, int64(42)},
		{`int("-7")`, int64(-7)},
		{`int(true)`, int64(1)},
		{`float(3)`, 3.0},
		{`abs(-4)`, int64(4)},
		{`abs(-4.5)`, 4.5},
		{`min(3, 1, 2)`, int64(1)},
		{`max(3, 1, 2)`, int64(3)},
		{`min(1.5, 2)`, 1.5},
		{`contains("hello", "ell")`, true},
		{`contains("hello", "xyz")`, false},
		{`contains([1,2,3], 2)`, true},
		{`contains({"k":1}, "k")`, true},
		{`contains({"k":1}, "j")`, false},
		{`substr("hello", 1, 3)`, "el"},
		{`len(split("a,b,c", ","))`, int64(3)},
		{`split("a,b", ",")[1]`, "b"},
		{`split("abc", "x")[0]`, "abc"},
		{`sprintf("%d-%s-%f", 1, "x", 0.5)`, "1-x-0.500000"},
		{`sprintf("100%%")`, "100%"},
		{`sprintf("%v", [1,2])`, "[1, 2]"},
	}
	for _, tt := range tests {
		got := mustRun(t, `func main() { return `+tt.expr+`; }`)
		if !goEqual(got, tt.want) {
			t.Errorf("%s = %v (%T), want %v", tt.expr, got, got, tt.want)
		}
	}
}

func TestBuiltinErrors(t *testing.T) {
	cases := []string{
		`len(1)`,
		`append(1, 2)`,
		`keys([1])`,
		`int("abc")`,
		`int("")`,
		`float("x")`,
		`abs("x")`,
		`substr("ab", 1, 9)`,
		`substr("ab", -1, 1)`,
		`split("a", "")`,
		`sprintf("%d", "x")`,
		`sprintf("%q", 1)`,
		`sprintf("%d")`,
		`sprintf("x", 1)`,
		`sprintf("%")`,
		`delete([1], "k")`,
		`contains(1, 2)`,
	}
	for _, expr := range cases {
		if _, err := run(t, `func main() { return `+expr+`; }`, nil); err == nil {
			t.Errorf("%s succeeded, want error", expr)
		}
	}
}

func TestDeleteBuiltin(t *testing.T) {
	got := mustRun(t, `func main() { var m = {"a":1,"b":2}; delete(m, "a"); return len(m); }`)
	if got != int64(1) {
		t.Fatalf("= %v", got)
	}
}

// TestSplitSizesResultOnce: split knows its element count before it
// builds the result, so it allocates the Array and one backing slice,
// never regrows the slice (an agent that splits an OID per MIB row pays
// for every regrowth on every row), and its parts share the input's
// bytes.
func TestSplitSizesResultOnce(t *testing.T) {
	b := Std()
	idx, _, ok := b.Lookup("split")
	if !ok {
		t.Fatal("no split binding")
	}
	const parts = 11
	args := []Value{Str("1.3.6.1.2.1.2.2.1.10.3"), Str(".")}
	var out Value
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if out, err = b.Call(idx, nil, args); err != nil {
			t.Fatal(err)
		}
	})
	if a, _ := out.AsArray(); len(a.Elems) != parts {
		t.Fatalf("split made %d elements, want %d", len(a.Elems), parts)
	}
	if allocs > 2 {
		t.Errorf("split of %d components allocates %v times, want at most 2", parts, allocs)
	}
}

// TestStringChainMatchesPairwise: a + chain of three or more operands
// runs as ADDC/ADDN and must keep pairwise left-to-right semantics:
// the same value, the first ill-typed pair failing with BIN +'s text
// after only the operands up to it have run (their reports show it),
// and the steps of the same code adding each pair at once.
func TestStringChainMatchesPairwise(t *testing.T) {
	const lib = `var hits = 0;
func note(x) { report(str(x)); return x; }
func tally(x) { hits += 1; return x; }
`
	cases := []struct {
		name, body string
		want       string
		events     []string
	}{
		{"strings", `return "a" + "bc" + "" + "déf";`, `string abcdéf`, nil},
		{"empty strings", `var e = ""; return e + e + e;`, `string `, nil},
		{"locals", `var s = "x"; var t = "yz"; return s + t + s + t + s;`, `string xyzxyzx`, nil},
		{"table row", `var p = split("n7:3", ":"); var c = ["a = 1", "b = 2"];
			var out = ""; for (var j = 0; j < 3; j += 1) { out = p[0] + " " + str(j) + " " + c[j % 2]; } return out;`,
			`string n7 2 a = 1`, nil},
		{"ints", `var x = 4294967296; return x + 1 + 2 + x;`, `int 8589934595`, nil},
		{"int to float", `return 1 + 2 + 0.5 + 3;`, `float 6.5`, nil},
		{"arrays", `var a = [1]; return a + [2] + a + [3, 4];`, `array [1, 2, 1, 3, 4]`, nil},
		// A string literal makes these ADDC/ADDN chains: the sums
		// before it are made at once, and the literal fails its pair.
		{"numbers then a literal", `return note(1) + note(2.5) + "x" + note(4);`,
			`error: dpl: runtime error: invalid operands for '+': float and string`, []string{"1", "2.5"}},
		{"arrays then a literal", `var a = [1]; return a + [2] + a + "x";`,
			`error: dpl: runtime error: cannot add array and string`, nil},
		{"bad first pair", `return 1 + note("b") + note("c");`,
			`error: dpl: runtime error: invalid operands for '+': int and string`, []string{"b"}},
		{"bad second pair", `return note("a") + note("b") + note(3) + note("d");`,
			`error: dpl: runtime error: cannot add string and int`, []string{"a", "b", "3"}},
		{"bad last pair", `return note("a") + note("b") + note("c") + nil;`,
			`error: dpl: runtime error: cannot add string and nil`, []string{"a", "b", "c"}},
		{"numbers then string", `return note(1) + note(2) + note("x") + note(4);`,
			`error: dpl: runtime error: invalid operands for '+': int and string`, []string{"1", "2", "x"}},
		{"report operand", `return "a" + report("r") + note("z");`,
			`error: dpl: runtime error: cannot add string and nil`, []string{"r"}},
		{"global store", `var s = tally("a") + tally("b") + tally("c"); return s + str(hits);`, `string abc3`, nil},
		{"index out of range", `var p = ["a"]; return note("x") + p[0] + p[1] + note("y");`,
			`error: dpl: runtime error: array index 1 out of range [0,1)`, []string{"x"}},
		{"nested chains", `var s = "q"; return s + (s + s + "r") + s + str(1 + 2 + 3);`, `string qqqrq6`, nil},
		{"constant chain", `return "1.3" + ".6" + ".1" + "." + str(4);`, `string 1.3.6.1.4`, nil},
		{"chain in a branch", `var s = "a"; return s + (s == "a" && "b" || "c") + s;`, `string aba`, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := lib + "func main() {\n" + c.body + "\n}\n"
			interp, vm, opt, pair, steps, pairSteps := runEngines(t, src)
			if interp.result != c.want || !slices.Equal(interp.events, c.events) {
				t.Fatalf("interp: %s, want %s, reports %q", interp, c.want, c.events)
			}
			for _, o := range []struct {
				name string
				out  outcome
			}{{"vm", vm}, {"optimized vm", opt}, {"pairwise vm", pair}} {
				if o.out.result != interp.result || !slices.Equal(o.out.events, interp.events) {
					t.Errorf("%s: %s, interp %s", o.name, o.out, interp)
				}
			}
			if steps != pairSteps {
				t.Errorf("chain ran %d steps, its pairwise form %d", steps, pairSteps)
			}
		})
	}
}

// TestNumericChainCompilesInOnePass: a + chain without a string literal
// compiles pairwise, and counting it once at its head keeps compile
// time linear in its length. Counted again at every +, 8n operands took
// 64 times as long as n.
func TestNumericChainCompilesInOnePass(t *testing.T) {
	const n = 2000
	compileTime := func(operands int) time.Duration {
		prog, err := Parse("func main() { return 1" + strings.Repeat(" + 1", operands-1) + "; }")
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		start := time.Now()
		c, err := Compile(prog, Std())
		if err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		if code := c.Funcs[0].Code; len(code) != 2*operands || code[2].Op != OpBin {
			t.Fatalf("%d operands compile to %d instructions, starting %v", operands, len(code), code[:3])
		}
		return d
	}
	// The best of 7, the two sizes taking turns, each compile from a
	// collected heap: collecting the parses' garbage inside the large
	// compiles, on a machine busy with other tests, read up to 28x.
	small, large := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range 7 {
		small, large = min(small, compileTime(n)), min(large, compileTime(8*n))
	}
	t.Logf("%d operands: %v; %d operands: %v", n, small, 8*n, large)
	if large > 20*small {
		t.Errorf("8x the operands took %.1fx the compile time, want at most 20x", float64(large)/float64(small))
	}
}

// TestStringChainOptimizesInLinearTime: the walker sums a chain of
// string literals in one pass, into one allocation, each time it meets
// the chain, so optimizing the chain costs bytes and time linear in its
// length. Folding pair by pair, 8n literals took 64 times the bytes and
// the time of n. The bytes are the exact measure; the time, the best of
// 7 runs, is held to twice that bound, since on a loaded machine a
// linear pass reads up to 10x.
func TestStringChainOptimizesInLinearTime(t *testing.T) {
	const n = 250
	optimize := func(literals int) (time.Duration, uint64) {
		lit := `"` + strings.Repeat("x", 62) + `"`
		prog, err := Parse("var s = " + lit + strings.Repeat(" + "+lit, literals-1) + "; func main() { return s; }")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(prog, Std())
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		Optimize(c)
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		return d, m1.TotalAlloc - m0.TotalAlloc
	}
	best := func(literals int) (d time.Duration, bytes uint64) {
		d, bytes = time.Duration(math.MaxInt64), math.MaxUint64
		for range 7 {
			di, bi := optimize(literals)
			d, bytes = min(d, di), min(bytes, bi)
		}
		return d, bytes
	}
	small, smallBytes := best(n)
	large, largeBytes := best(8 * n)
	t.Logf("%d literals: %v, %d bytes; %d literals: %v, %d bytes", n, small, smallBytes, 8*n, large, largeBytes)
	if largeBytes > 10*smallBytes {
		t.Errorf("8x the literals allocated %.1fx the bytes, want at most 10x", float64(largeBytes)/float64(smallBytes))
	}
	if large > 20*small {
		t.Errorf("8x the literals took %.1fx the optimizing time, want at most 20x", float64(large)/float64(small))
	}
}
