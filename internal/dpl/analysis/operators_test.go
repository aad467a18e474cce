package analysis

import (
	"context"
	"fmt"
	"testing"

	"mbd/internal/dpl"
)

// TestOperatorRulesAgree: the analyzer's constant folding (the walker
// over the compiler's output, as the analyzer runs it), the VM, the VM
// over optimized code and the reference interpreter apply one set of
// operator rules, so each expression below means the same to all four.
// Two ints compare exactly: 2^53+1 and 2^53 are one float64 but two
// Counter64 readings.
func TestOperatorRulesAgree(t *testing.T) {
	for _, c := range []struct{ expr, want string }{
		{"9007199254740993 <= 9007199254740992", "false"},
		{"9007199254740993 < 9007199254740992", "false"},
		{"9007199254740993 > 9007199254740992", "true"},
		{"9007199254740993 >= 9007199254740994", "false"},
		{"9007199254740993 == 9007199254740992", "false"},
		{"9007199254740993 != 9007199254740992", "true"},
		{"9223372036854775807 > 9223372036854775806", "true"},
		{"-9223372036854775807 < -9223372036854775806", "true"},
		{"9223372036854775807 + 1 < 0", "true"},
		{"9007199254740993 == 9007199254740992.0", "true"}, // an int meeting a float is promoted
		{"9007199254740993 > 9007199254740992.0", "false"},
		{"2 < 2.5", "true"},
		{"7 / 2", "3"},
		{"-7 % 3", "-1"},
		{"7.0 / 2", "3.5"},
		{`"ab" + "c"`, "abc"},
		{`"abc" < "abd"`, "true"},
		{`"a" == 1`, "false"},
		{"nil == nil", "true"},
		{"1 && 0", "0"},
		{`0 || "x"`, "x"},
		{"!0.0", "true"},
		{"-(1.5)", "-1.5"},
	} {
		src := "func main() { return " + c.expr + "; }"
		prog, err := dpl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		b := dpl.Std()
		obj, err := dpl.Compile(prog, b)
		if err != nil {
			t.Fatal(err)
		}
		var v dpl.Value
		var ok bool
		var w dpl.Walker
		code := obj.Funcs[0].Code
		w.Walk(obj, code, 0, func(ip int, stack, _ []dpl.Abs) bool {
			if code[ip].Op == dpl.OpReturn {
				v, ok = stack[len(stack)-1].Exact()
			}
			return true
		})
		if !ok {
			t.Errorf("%s: analysis does not fold it", c.expr)
		} else if got := dpl.FormatValue(v); got != c.want {
			t.Errorf("%s: analysis folds it to %s, want %s", c.expr, got, c.want)
		}
		for _, optimize := range []bool{false, true} {
			obj, err := dpl.Compile(prog, b)
			if err != nil {
				t.Fatal(err)
			}
			if optimize {
				dpl.Optimize(obj)
			}
			r, err := dpl.NewVM(obj, b).Run(context.Background(), "main")
			if got := fmt.Sprint(r); err != nil || got != c.want {
				t.Errorf("%s: VM (optimized %v) = %s, %v; want %s", c.expr, optimize, got, err, c.want)
			}
		}
		it, err := dpl.NewInterp(prog, b)
		if err != nil {
			t.Fatal(err)
		}
		r, err := it.Run(context.Background(), "main")
		if got := fmt.Sprint(r); err != nil || got != c.want {
			t.Errorf("%s: interpreter = %s, %v; want %s", c.expr, got, err, c.want)
		}
	}
}

// TestUnreachableMeansNotRun: a loop whose condition the analyzer calls
// constantly false (DPL002 on its body) is one the VM never enters.
func TestUnreachableMeansNotRun(t *testing.T) {
	const src = `func main() {
	var n = 0;
	while (9007199254740993 <= 9007199254740992) {
		n += 1;
		return n;
	}
	return n;
}`
	wantCode(t, analyzeSrc(t, src), "DPL002")
	b := LintBindings()
	obj := dpl.MustCompile(src, b)
	r, err := dpl.NewVM(obj, b).Run(context.Background(), "main")
	if err != nil || fmt.Sprint(r) != "0" {
		t.Fatalf("VM = %v, %v; the loop the analyzer calls unreachable ran", r, err)
	}
}
