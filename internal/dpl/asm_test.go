package dpl

import (
	"strings"
	"testing"
)

// asmSources exercises every opcode form the disassembler prints:
// consts of all scalar types (including a float with no fractional
// digits, which must not read back as an int), short-circuit keeps,
// arrays, maps, indexing, host and function calls, loops.
var asmSources = []string{
	`var threshold = 2.0;
	var label = "hot";
	func check(u) { return u > threshold && u != 0.5; }
	func main() {
		var v = mibGet("1.3.6.1.2.1.1.3.0");
		if (check(float(v)) || v == 0) { return label; }
		return "ok";
	}`,
	`func main() {
		var a = [1, 2, 3];
		var m = {"k": 10};
		a[0] = m["k"];
		var s = 0;
		for (var i = 0; i < len(a); i += 1) { s += a[i]; }
		while (s > 100) { s -= 7; break; }
		return -s % 3;
	}`,
}

func asmBindings() *Bindings {
	b := Std()
	b.Register("mibGet", 1, func(*Env, []Value) (Value, error) { return Int(0), nil })
	return b
}

// TestAssembleRoundTrip: disassemble → assemble → disassemble must be
// stable, for raw and optimized code alike.
func TestAssembleRoundTrip(t *testing.T) {
	b := asmBindings()
	for _, src := range asmSources {
		for _, optimize := range []bool{false, true} {
			c := compileSrc(t, src, b)
			if optimize {
				Optimize(c)
			}
			d1 := Disassemble(c)
			c2, err := Assemble(d1)
			if err != nil {
				t.Fatalf("assemble (optimize=%v): %v\n%s", optimize, err, d1)
			}
			if faults := new(Scratch).VerifyStructure(c2); len(faults) > 0 {
				t.Fatalf("assembled program fails verification: %v\n%s", faults[0], d1)
			}
			d2 := Disassemble(c2)
			if d1 != d2 {
				t.Fatalf("round trip unstable (optimize=%v):\n--- first ---\n%s--- second ---\n%s", optimize, d1, d2)
			}
		}
	}
}

// TestFloatConstRendering: a float constant with integral value must
// stay a float through the listing.
func TestFloatConstRendering(t *testing.T) {
	c := compileSrc(t, `var f = 2.0; func main() { return f; }`, Std())
	d := Disassemble(c)
	if !strings.Contains(d, "CONST   2.0") && !strings.Contains(collapse(d), "CONST 2.0") {
		t.Fatalf("float const ambiguous in listing:\n%s", d)
	}
	c2, err := Assemble(d)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range c2.Consts {
		if f, ok := v.AsNumber(); ok && v.Kind() == KindFloat && f == 2.0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("2.0 did not reassemble as a float: %v", c2.Consts)
	}
}

func TestAssembleErrors(t *testing.T) {
	for _, text := range []string{
		"  0  BOGUS\n",
		"func main (params=2 locals=1):\n  0  RETNIL\n",
		"func main (params=0 locals=0):\n  0  CALL missing/0\n",
		"func main (params=0 locals=0):\n  0  LOADG nope\n",
		"func main (params=0 locals=0):\n  0  BIN '='\n",
		"func main (params=0 locals=0):\n  0  JUMP 5\n",
		"  0  POP\n",
	} {
		if _, err := Assemble(text); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", text)
		}
	}
}
