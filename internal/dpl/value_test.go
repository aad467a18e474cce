package dpl

import (
	"math"
	"testing"
	"unsafe"
)

// TestValueSize: a Value is a kind, a payload word and a pointer word,
// passed by value; it must not outgrow three words.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 24 {
		t.Fatalf("Value is %d bytes, want at most 24", n)
	}
}

// TestGoBoundaryRoundTrip: FromGo and ToGo carry every kind across the
// Run boundary unchanged, arrays and maps by reference; anything else is
// refused.
func TestGoBoundaryRoundTrip(t *testing.T) {
	arr, m := &Array{Elems: []Value{Int(1)}}, NewMap()
	for _, x := range []any{nil, true, false, int64(math.MinInt64), int64(1 << 60), math.Inf(-1), -0.5, "", "héllo", arr, m} {
		v, err := FromGo(x)
		if err != nil {
			t.Fatalf("FromGo(%#v): %v", x, err)
		}
		if back := ToGo(v); back != x {
			t.Errorf("%#v came back as %#v", x, back)
		}
	}
	for _, x := range []any{1, uint64(1), float32(1), []Value{}, Value{}} {
		if _, err := FromGo(x); err == nil {
			t.Errorf("FromGo(%T) accepted a value that is not DPL", x)
		}
	}
	if v, _ := FromGo((*Array)(nil)); v.Kind() != KindNil {
		t.Errorf("a nil *Array is %s, want nil", TypeName(v))
	}
}
