package dpl

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

func TestTranslatorRejectsUnboundCall(t *testing.T) {
	// The paper's core safety rule: a dp binding to a function outside
	// the predefined allowed set is rejected at translation time.
	prog := mustParse(t, `func main() { exec("/bin/sh"); }`)
	errs := Check(prog, Std())
	if len(errs) == 0 {
		t.Fatal("unbound call accepted by translator")
	}
	if !strings.Contains(errs[0].Error(), "allowed host function set") {
		t.Fatalf("unexpected diagnostic: %v", errs[0])
	}
}

func TestTranslatorAcceptsBoundCall(t *testing.T) {
	b := Std()
	b.Register("mibGet", 1, func(*Env, []Value) (Value, error) { return Int(0), nil })
	prog := mustParse(t, `func main() { return mibGet("1.3.6.1.2.1.1.3.0"); }`)
	if errs := Check(prog, b); len(errs) != 0 {
		t.Fatalf("bound call rejected: %v", errs)
	}
}

func TestTranslatorArityChecks(t *testing.T) {
	b := Std()
	b.Register("two", 2, func(*Env, []Value) (Value, error) { return Value{}, nil })
	cases := []struct {
		src  string
		want string
	}{
		{`func main() { two(1); }`, "expects 2 arguments"},
		{`func f(a) { return a; } func main() { f(1, 2); }`, "expects 1 arguments"},
		{`func main() { len(); }`, "expects 1 arguments"},
	}
	for _, c := range cases {
		errs := Check(mustParse(t, c.src), b)
		if len(errs) == 0 || !strings.Contains(errs[0].Error(), c.want) {
			t.Errorf("Check(%q) = %v, want %q", c.src, errs, c.want)
		}
	}
}

func TestTranslatorVariableRules(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`func main() { return y; }`, `undeclared variable "y"`},
		{`func main() { y = 1; }`, `assignment to undeclared variable "y"`},
		{`func main() { var x = 1; var x = 2; }`, `redeclared in this scope`},
		{`var g = 1; var g = 2; func main() {}`, `redeclared`},
		{`func f(a, a) {} func main() {}`, `repeated`},
		{`func f() {} func f() {} func main() {}`, `redefined`},
		{`func len() {} func main() {}`, `shadows a host function`},
		{`func main() { break; }`, `break outside loop`},
		{`func main() { continue; }`, `continue outside loop`},
		{`var g = h; func main() {}`, `"h"`},
	}
	for _, c := range cases {
		errs := Check(mustParse(t, c.src), Std())
		if len(errs) == 0 {
			t.Errorf("Check(%q): accepted, want %q", c.src, c.want)
			continue
		}
		found := false
		for _, e := range errs {
			if strings.Contains(e.Error(), c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("Check(%q) = %v, want %q", c.src, errs, c.want)
		}
	}
}

func TestTranslatorAllowsShadowingInNestedScopes(t *testing.T) {
	src := `
func main() {
	var x = 1;
	if (x > 0) {
		var x = 2;
		x = 3;
	}
	while (x < 10) {
		var x = 4;
		x += 1;
		break;
	}
	return x;
}`
	if errs := Check(mustParse(t, src), Std()); len(errs) != 0 {
		t.Fatalf("legal shadowing rejected: %v", errs)
	}
}

func TestTranslatorBreakInsideNestedLoopOK(t *testing.T) {
	src := `
func main() {
	for (var i = 0; i < 3; i += 1) {
		while (true) {
			if (i == 1) { break; }
			continue;
		}
	}
}`
	if errs := Check(mustParse(t, src), Std()); len(errs) != 0 {
		t.Fatalf("nested loop control rejected: %v", errs)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`func main( { }`,
		`func main() { var ; }`,
		`func main() { if x { } }`, // missing parens
		`func main() { 1 + ; }`,
		`func main() { foo(1,; }`,
		`x = 1;`,                                // top-level statement
		`func main() { return 1 }`,              // missing semicolon
		`func main() { a[1 = 2; }`,              // unclosed index
		`func main() {`,                         // unclosed block
		`func main() { (1 + 2; }`,               // unclosed paren
		`func main() { {"k" 1}; }`,              // missing colon
		`func main() { 1 = 2; }`,                // bad assign target
		`func main() { 99999999999999999999; }`, // int overflow
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestCompileRejectsUncheckedProgram(t *testing.T) {
	prog := mustParse(t, `func main() { evil(); }`)
	if _, err := Compile(prog, Std()); err == nil {
		t.Fatal("Compile accepted a program the translator must reject")
	}
}

// TestCheckResolvesOncePerBindings: the resolver walks a program once
// per Bindings. Compile and a second Check against the same table reuse
// the first walk's verdict and bindings without allocating; another
// table resolves the program again.
func TestCheckResolvesOncePerBindings(t *testing.T) {
	prog := mustParse(t, `var g = 1; func main() { var x = g; return len([x]); }`)
	b := Std()
	if diags := Check(prog, b); len(diags) != 0 {
		t.Fatal(diags)
	}
	// A mark the resolver would overwrite: the frame it numbered.
	prog.Funcs[0].Locals[0] = "mark"
	if _, err := Compile(prog, b); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { Check(prog, b) }); n != 0 {
		t.Errorf("re-checking a resolved program allocates %.0f times", n)
	}
	if prog.Funcs[0].Locals[0] != "mark" {
		t.Fatal("Compile resolved a program already checked against its bindings")
	}
	Check(prog, Std())
	if prog.Funcs[0].Locals[0] != "x" {
		t.Fatal("checking against another Bindings did not resolve the program again")
	}
}

// TestResolverNumbersSlotsAsCompiled: frame slots follow declaration
// order through nested blocks and loops (Init, Cond, Body, Post), a
// shadowing declaration gets a slot of its own, and every name is bound
// to the innermost declaration in scope.
func TestResolverNumbersSlotsAsCompiled(t *testing.T) {
	prog := mustParse(t, `
var g = 1;
func main(p) {
	var a = p;
	{ var a = 2; a = g; }
	for (var i = 0; i < 2; i += 1) { var b = i; }
	return a;
}`)
	if diags := Check(prog, Std()); len(diags) != 0 {
		t.Fatal(diags)
	}
	main := prog.Funcs[0]
	if got := strings.Join(main.Locals, ","); got != "p,a,a,i,b" {
		t.Fatalf("frame = %s, want p,a,a,i,b", got)
	}
	inner := main.Body.Stmts[1].(*Block).Stmts[1].(*AssignStmt)
	if tgt, val := inner.Target.(*Ident), inner.Value.(*Ident); tgt.Global || tgt.Slot != 2 || !val.Global || val.Slot != 0 {
		t.Errorf("a = g in the block binds %+v = %+v, want local 2 = global 0", tgt, val)
	}
	ret := main.Body.Stmts[3].(*ReturnStmt).Value.(*Ident)
	if ret.Global || ret.Slot != 1 {
		t.Errorf("return a binds %+v, want local 1", ret)
	}
}
