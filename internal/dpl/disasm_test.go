package dpl

import (
	"regexp"
	"strings"
	"testing"
)

// collapse normalizes runs of spaces so tests can match mnemonics
// without depending on column padding.
func collapse(s string) string {
	return regexp.MustCompile(` +`).ReplaceAllString(s, " ")
}

func TestDisassembleListsEverything(t *testing.T) {
	b := Std()
	b.Register("mibGet", 1, func(*Env, []Value) (Value, error) { return Int(0), nil })
	c := MustCompile(`
var threshold = 0.8;
func check(u) { return u > threshold; }
func main() {
	var v = mibGet("1.3.6.1.2.1.1.3.0");
	if (check(float(v))) { return "hot"; } else { return "ok"; }
}`, b)
	out := collapse(Disassemble(c))
	for _, want := range []string{
		"globals: threshold",
		"init:",
		"func check (params=1 locals=1):",
		"func main (params=0 locals=1):",
		"CALLH mibGet/1",
		"CALLH float/1",
		"CALL check/1",
		`CONST "hot"`,
		"CONST 0.8",
		"STOREG threshold",
		"LOADG threshold",
		"JF",
		"RET",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly lacks %q:\n%s", want, out)
		}
	}
}

func TestDisassembleHostNameIndexOrder(t *testing.T) {
	// Host call operands are registration indices, not sorted-name
	// positions; the listing must use the same order.
	b := NewBindings()
	b.Register("zzz", 0, func(*Env, []Value) (Value, error) { return Value{}, nil })
	b.Register("aaa", 0, func(*Env, []Value) (Value, error) { return Value{}, nil })
	c := MustCompile(`func main() { zzz(); aaa(); }`, b)
	out := collapse(Disassemble(c))
	zi := strings.Index(out, "CALLH zzz/0")
	ai := strings.Index(out, "CALLH aaa/0")
	if zi < 0 || ai < 0 || zi > ai {
		t.Fatalf("host call order wrong:\n%s", out)
	}
}

func TestOpcodeStrings(t *testing.T) {
	if OpConst.String() != "CONST" || OpCallHost.String() != "CALLH" {
		t.Error("opcode names wrong")
	}
	if Opcode(200).String() != "OP(200)" {
		t.Error("unknown opcode unnamed")
	}
}
