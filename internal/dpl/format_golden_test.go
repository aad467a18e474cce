package dpl

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/format.golden from this tree")

func formatTable() []struct {
	label string
	v     Value
} {
	arr := ArrayOf
	mp := func(kv ...Value) Value {
		m := NewMap()
		for i := 0; i < len(kv); i += 2 {
			m.M[kv[i].String()] = kv[i+1]
		}
		return MapValue(m)
	}
	return []struct {
		label string
		v     Value
	}{
		{"nil", Value{}},
		{"true", Bool(true)},
		{"false", Bool(false)},
		{"int 0", Int(0)},
		{"int -1", Int(-1)},
		{"int 255", Int(255)},
		{"int 256", Int(256)},
		{"int 2^53+1", Int(1<<53 + 1)},
		{"int MinInt64", Int(math.MinInt64)},
		{"int MaxInt64", Int(math.MaxInt64)},
		{"float 0", Float(0)},
		{"float -0", Float(math.Copysign(0, -1))},
		{"float 1", Float(1)},
		{"float 0.1", Float(0.1)},
		{"float 2.5", Float(2.5)},
		{"float 123456789.125", Float(123456789.125)},
		{"float 1e20", Float(1e20)},
		{"float 1e21", Float(1e21)},
		{"float 1e-6", Float(1e-6)},
		{"float 1e-7", Float(1e-7)},
		{"float -1.5e300", Float(-1.5e300)},
		{"float NaN", Float(math.NaN())},
		{"float +Inf", Float(math.Inf(1))},
		{"float -Inf", Float(math.Inf(-1))},
		{"string empty", Str("")},
		{"string hello", Str("hello")},
		{"string quoted", Str("tab\tquote\"%d")},
		{"string utf8", Str("héllo")},
		{"array empty", arr()},
		{"array mixed", arr(Int(1), Str("a"), Value{}, Float(2.5), Bool(true))},
		{"array nested", arr(arr(Int(1), arr(Int(2))), mp(Str("k"), arr(Bool(true))))},
		{"map empty", mp()},
		{"map quoted keys", mp(Str("é\t"), Int(1), Str("\"q\""), Str("v"), Str(""), Value{})},
		{"map nested", mp(Str("b"), Int(1), Str("a"), Str("x"), Str("c"),
			mp(Str("z"), Value{}, Str("y"), arr(Float(math.Inf(-1)))))},
	}
}

// TestFormatGolden pins how FormatValue and sprintf render every kind of
// value, edge cases included. testdata/format.golden was written by the
// engine that boxed every value in an interface; regenerate it only with
// -update.
func TestFormatGolden(t *testing.T) {
	b := Std()
	sp, _, _ := b.Lookup("sprintf")
	var out strings.Builder
	for _, c := range formatTable() {
		fmt.Fprintf(&out, "%s\t%s", c.label, FormatValue(c.v))
		for _, verb := range []string{"%v", "%s", "%d", "%f", "<%v|%%>"} {
			// Go leaves float-to-int conversion of NaN and of values
			// beyond int64 to the platform.
			if f, ok := c.v.AsNumber(); ok && c.v.Kind() == KindFloat && verb == "%d" && !(math.Abs(f) < 1<<63) {
				out.WriteString("\t-")
				continue
			}
			r, err := b.Call(sp, &Env{}, []Value{Str(verb), c.v})
			if err != nil {
				fmt.Fprintf(&out, "\terror: %v", err)
			} else {
				fmt.Fprintf(&out, "\t%s", FormatValue(r))
			}
		}
		out.WriteByte('\n')
	}
	got := out.String()
	const golden = "testdata/format.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("rendering changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
