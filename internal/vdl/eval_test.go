package vdl

import (
	"testing"

	"mbd/internal/mib"
)

// Expression-semantics table tests for the view evaluator's value
// domain, independent of any MIB.

func evalStandalone(t *testing.T, src string, cells map[string]Value) Value {
	t.Helper()
	v, err := Parse(`view x { from t; select ` + src + ` as out; }`)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	e := newEnv()
	e.add("t", cells)
	out, err := evalExpr(v.Select[0].Expr, e)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return out
}

func TestExpressionSemantics(t *testing.T) {
	cells := map[string]Value{
		"i": int64(6), "j": int64(4), "f": 2.5, "s": "abc", "b": true, "z": nil,
	}
	cases := []struct {
		expr string
		want Value
	}{
		{`i + j`, int64(10)},
		{`i - j`, int64(2)},
		{`i * j`, int64(24)},
		{`i / 3`, int64(2)}, // exact integer division stays int
		{`i / j`, 1.5},      // inexact promotes to float
		{`i % j`, int64(2)},
		{`i + f`, 8.5},
		{`-i`, int64(-6)},
		{`-f`, -2.5},
		{`!b`, false},
		{`!z`, true},
		{`i > j`, true},
		{`i <= j`, false},
		{`f >= 2.5`, true},
		{`s == "abc"`, true},
		{`s != "abc"`, false},
		{`s < "abd"`, true},
		{`s > "ab"`, true},
		{`s + "d"`, "abcd"},
		{`i == 6.0`, true}, // numeric promotion in equality
		{`z == 0`, false},  // nil is not zero
		{`b == true`, true},
		{`b && i > j`, true},
		{`b && i < j`, false},
		{`!b || s == "abc"`, true},
		{`1 == "1"`, false},
	}
	for _, c := range cases {
		if got := evalStandalone(t, c.expr, cells); got != c.want {
			t.Errorf("%s = %v (%T), want %v", c.expr, got, got, c.want)
		}
	}
}

func TestExpressionErrors(t *testing.T) {
	cells := map[string]Value{"s": "abc", "i": int64(1)}
	for _, expr := range []string{
		`s - 1`, `s < 1`, `-s`, `i % 0`, `i / 0`, `s * s`, `s % s`,
	} {
		v, err := Parse(`view x { from t; select ` + expr + ` as out; }`)
		if err != nil {
			t.Fatalf("parse %q: %v", expr, err)
		}
		e := newEnv()
		e.add("t", cells)
		if _, err := evalExpr(v.Select[0].Expr, e); err == nil {
			t.Errorf("%s evaluated without error", expr)
		}
	}
}

func TestToSMIAllKinds(t *testing.T) {
	cases := []struct {
		in   Value
		want mib.Value
	}{
		{nil, mib.Null()},
		{true, mib.Int(1)},
		{false, mib.Int(0)},
		{int64(-3), mib.Int(-3)},
		{0.5, mib.Int(500000)}, // fixed-point micro units
		{"s", mib.Str("s")},
		{[]int{1}, mib.Str("[1]")}, // fallback rendering
	}
	for _, c := range cases {
		if got := toSMI(c.in); got.String() != c.want.String() {
			t.Errorf("toSMI(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTruthyDomain(t *testing.T) {
	cases := []struct {
		in   Value
		want bool
	}{
		{nil, false}, {false, false}, {true, true},
		{int64(0), false}, {int64(3), true},
		{0.0, false}, {0.1, true},
		{"", false}, {"x", true},
		{struct{}{}, true},
	}
	for _, c := range cases {
		if truthy(c.in) != c.want {
			t.Errorf("truthy(%v) != %v", c.in, c.want)
		}
	}
}
