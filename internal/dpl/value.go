package dpl

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Kind is the dynamic type of a Value.
type Kind uint8

// The DPL value kinds.
const (
	KindNil Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindArray // *Array, reference semantics
	KindMap   // *Map, string keys, reference semantics
)

var kindNames = [...]string{"nil", "bool", "int", "float", "string", "array", "map"}

// String names the kind as DPL diagnostics do.
func (k Kind) String() string { return kindNames[k] }

// Value is a DPL runtime value: a kind, a 64-bit payload and one pointer
// word, 24 bytes passed by value. No kind costs a heap object of its own:
// bools, ints and floats live in the payload, a string is its data
// pointer and length, and arrays and maps are one pointer to the shared
// container. The zero Value is nil.
//
// Construct values with Bool, Int, Float, Str, ArrayValue, ArrayOf and
// MapValue; read them with Kind and the As accessors.
type Value struct {
	p unsafe.Pointer // string data, *Array or *Map
	n uint64         // bool (0/1), int64 or float64 bits; a string's length
	k Kind
}

// Array is a mutable DPL array.
type Array struct {
	Elems []Value
}

// Map is a mutable DPL map with string keys.
type Map struct {
	M map[string]Value
}

// NewMap returns an empty Map ready for use.
func NewMap() *Map { return &Map{M: make(map[string]Value)} }

// Bool returns the DPL bool b.
func Bool(b bool) Value {
	if b {
		return Value{n: 1, k: KindBool}
	}
	return Value{k: KindBool}
}

// Int returns the DPL int i.
func Int(i int64) Value { return Value{n: uint64(i), k: KindInt} }

// Float returns the DPL float f.
func Float(f float64) Value { return Value{n: math.Float64bits(f), k: KindFloat} }

// Str returns the DPL string s. The Value shares s's bytes.
func Str(s string) Value {
	return Value{p: unsafe.Pointer(unsafe.StringData(s)), n: uint64(len(s)), k: KindString}
}

// StrBytes returns the DPL string holding b's bytes without copying
// them: the caller hands b over and must never write to it again.
func StrBytes(b []byte) Value {
	return Value{p: unsafe.Pointer(unsafe.SliceData(b)), n: uint64(len(b)), k: KindString}
}

// ArrayValue returns the DPL array a; a nil a is the nil Value.
func ArrayValue(a *Array) Value {
	if a == nil {
		return Value{}
	}
	return Value{p: unsafe.Pointer(a), k: KindArray}
}

// ArrayOf returns a new DPL array holding elems, which it keeps.
func ArrayOf(elems ...Value) Value { return ArrayValue(&Array{Elems: elems}) }

// Rows returns an array of n rows that split cells evenly, built in one
// pass: the rows share one []Array and cells itself, and each row's
// slice is capped, so an append to one row copies it instead of
// overwriting the next.
func Rows(cells []Value, n int) Value {
	rows := make([]Array, n)
	elems := make([]Value, n)
	for i := range rows {
		w := len(cells) / n
		rows[i].Elems = cells[i*w : (i+1)*w : (i+1)*w]
		elems[i] = ArrayValue(&rows[i])
	}
	return ArrayOf(elems...)
}

// MapValue returns the DPL map m; a nil m is the nil Value.
func MapValue(m *Map) Value {
	if m == nil {
		return Value{}
	}
	return Value{p: unsafe.Pointer(m), k: KindMap}
}

// Kind returns v's kind.
func (v Value) Kind() Kind { return v.k }

// AsBool returns v's bool, if v is one.
func (v Value) AsBool() (bool, bool) { return v.n != 0, v.k == KindBool }

// AsInt returns v's int, if v is one.
func (v Value) AsInt() (int64, bool) { return int64(v.n), v.k == KindInt }

// AsNumber returns v as a float64 if v is an int or a float.
func (v Value) AsNumber() (float64, bool) {
	switch v.k {
	case KindInt:
		return float64(int64(v.n)), true
	case KindFloat:
		return math.Float64frombits(v.n), true
	}
	return 0, false
}

// AsString returns v's string, if v is one.
func (v Value) AsString() (string, bool) {
	if v.k != KindString {
		return "", false
	}
	return v.str(), true
}

// AsArray returns v's array, if v is one.
func (v Value) AsArray() (*Array, bool) {
	if v.k != KindArray {
		return nil, false
	}
	return (*Array)(v.p), true
}

// AsMap returns v's map, if v is one.
func (v Value) AsMap() (*Map, bool) {
	if v.k != KindMap {
		return nil, false
	}
	return (*Map)(v.p), true
}

// String renders v as FormatValue does.
func (v Value) String() string { return FormatValue(v) }

func (v Value) int() int64     { return int64(v.n) }
func (v Value) float() float64 { return math.Float64frombits(v.n) }
func (v Value) str() string    { return unsafe.String((*byte)(v.p), int(v.n)) }
func (v Value) arr() *Array    { return (*Array)(v.p) }
func (v Value) dict() *Map     { return (*Map)(v.p) }

// FromGo converts a Go value to a Value. It accepts nil, bool, int64,
// float64, string, *Array and *Map. With ToGo it is the one conversion
// between Go values and DPL values, made where a Run starts and ends.
func FromGo(x any) (Value, error) {
	switch x := x.(type) {
	case nil:
		return Value{}, nil
	case bool:
		return Bool(x), nil
	case int64:
		return Int(x), nil
	case float64:
		return Float(x), nil
	case string:
		return Str(x), nil
	case *Array:
		return ArrayValue(x), nil
	case *Map:
		return MapValue(x), nil
	}
	return Value{}, fmt.Errorf("dpl: a Go %T is not a DPL value", x)
}

// ToGo converts v to the Go value FromGo takes back.
func ToGo(v Value) any {
	switch v.k {
	case KindBool:
		return v.n != 0
	case KindInt:
		return v.int()
	case KindFloat:
		return v.float()
	case KindString:
		return v.str()
	case KindArray:
		return v.arr()
	case KindMap:
		return v.dict()
	}
	return nil
}

// Format renders a Go value as a Run returns it, the way FormatValue
// renders the Value it came from.
func Format(x any) string {
	v, err := FromGo(x)
	if err != nil {
		return fmt.Sprintf("<%T>", x)
	}
	return FormatValue(v)
}

// Truthy reports DPL truth: false, nil, 0, 0.0 and "" are false;
// everything else (including empty arrays/maps) is true.
func Truthy(v Value) bool {
	switch v.k {
	case KindNil:
		return false
	case KindFloat:
		return v.float() != 0
	case KindArray, KindMap:
		return true
	}
	return v.n != 0 // bool, int, and a string's length
}

// FormatValue renders a value the way the print/str builtins do.
func FormatValue(v Value) string {
	switch v.k {
	case KindNil:
		return "nil"
	case KindBool:
		return strconv.FormatBool(v.n != 0)
	case KindInt:
		return strconv.FormatInt(v.int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.str()
	}
	return string(appendValue(nil, v))
}

// appendValue appends FormatValue(v) to b.
func appendValue(b []byte, v Value) []byte {
	switch v.k {
	case KindNil:
		return append(b, "nil"...)
	case KindBool:
		return strconv.AppendBool(b, v.n != 0)
	case KindInt:
		return strconv.AppendInt(b, v.int(), 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.float(), 'g', -1, 64)
	case KindString:
		return append(b, v.str()...)
	case KindArray:
		b = append(b, '[')
		for i, e := range v.arr().Elems {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendValue(b, e)
		}
		return append(b, ']')
	}
	m := v.dict().M
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendQuote(b, k)
		b = append(b, ": "...)
		b = appendValue(b, m[k])
	}
	return append(b, '}')
}

// TypeName names a value's DPL type for diagnostics.
func TypeName(v Value) string { return v.k.String() }

// RuntimeError is an error raised during DPL execution, carrying the
// program-counter-independent description of what went wrong.
type RuntimeError struct {
	Msg string
}

// Error implements error.
func (e *RuntimeError) Error() string { return "dpl: runtime error: " + e.Msg }

func rtErrf(format string, args ...any) *RuntimeError {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...)}
}

// Binary applies a binary operator: + - * / %, the relational four, ==
// and !=. It is the one statement of the operator rules; the VM, the
// interpreter, the optimizer's folding and the analyzer all apply it.
//
// Two ints combine as ints (wrapping on overflow) and compare exactly; an
// int meeting a float is promoted to float. + also concatenates strings
// and arrays, and strings compare byte-wise. == is deep on arrays and
// maps and false across kinds other than int and float.
func Binary(op TokenKind, l, r Value) (Value, error) {
	switch op {
	case TokEq:
		return Bool(valueEqual(l, r)), nil
	case TokNe:
		return Bool(!valueEqual(l, r)), nil
	case TokLt, TokLe, TokGt, TokGe:
		return compare(op, l, r)
	}
	return arith(op, l, r)
}

// Negate applies unary minus.
func Negate(v Value) (Value, error) {
	switch v.k {
	case KindInt:
		return Int(-v.int()), nil
	case KindFloat:
		return Float(-v.float()), nil
	}
	return Value{}, rtErrf("cannot negate %s", TypeName(v))
}

// arith applies a binary arithmetic operator with int/float promotion.
// + also concatenates strings and arrays.
func arith(op TokenKind, a, b Value) (Value, error) {
	if op == TokPlus {
		switch a.k {
		case KindString:
			if b.k == KindString {
				return Str(a.str() + b.str()), nil
			}
			return Value{}, rtErrf("cannot add string and %s", TypeName(b))
		case KindArray:
			if b.k == KindArray {
				return ArrayOf(slices.Concat(a.arr().Elems, b.arr().Elems)...), nil
			}
			return Value{}, rtErrf("cannot add array and %s", TypeName(b))
		}
	}
	if a.k == KindInt && b.k == KindInt {
		x, y := a.int(), b.int()
		switch op {
		case TokPlus:
			return Int(x + y), nil
		case TokMinus:
			return Int(x - y), nil
		case TokStar:
			return Int(x * y), nil
		case TokSlash:
			if y == 0 {
				return Value{}, rtErrf("integer division by zero")
			}
			return Int(x / y), nil
		case TokPercent:
			if y == 0 {
				return Value{}, rtErrf("integer modulo by zero")
			}
			return Int(x % y), nil
		}
	}
	af, aok := a.AsNumber()
	bf, bok := b.AsNumber()
	if !aok || !bok {
		return Value{}, rtErrf("invalid operands for %s: %s and %s", op, TypeName(a), TypeName(b))
	}
	switch op {
	case TokPlus:
		return Float(af + bf), nil
	case TokMinus:
		return Float(af - bf), nil
	case TokStar:
		return Float(af * bf), nil
	case TokSlash:
		if bf == 0 {
			return Value{}, rtErrf("division by zero")
		}
		return Float(af / bf), nil
	case TokPercent:
		return Value{}, rtErrf("%% requires integer operands")
	}
	return Value{}, rtErrf("unknown arithmetic operator %s", op)
}

// compare applies a relational operator. Two ints compare exactly,
// other numbers with promotion to float (NaN is unordered); strings
// compare byte-wise.
func compare(op TokenKind, a, b Value) (Value, error) {
	var c int
	switch {
	case a.k == KindString && b.k == KindString:
		c = strings.Compare(a.str(), b.str())
	case a.k == KindString:
		return Value{}, rtErrf("cannot compare string and %s", TypeName(b))
	case a.k == KindInt && b.k == KindInt:
		c = cmp.Compare(a.int(), b.int())
	default:
		af, aok := a.AsNumber()
		bf, bok := b.AsNumber()
		if !aok || !bok {
			return Value{}, rtErrf("invalid operands for %s: %s and %s", op, TypeName(a), TypeName(b))
		}
		if math.IsNaN(af) || math.IsNaN(bf) {
			return Bool(false), nil
		}
		c = cmp.Compare(af, bf)
	}
	switch op {
	case TokLt:
		return Bool(c < 0), nil
	case TokLe:
		return Bool(c <= 0), nil
	case TokGt:
		return Bool(c > 0), nil
	}
	return Bool(c >= 0), nil
}

// valueEqual implements ==: exact on two ints, with promotion between
// an int and a float, and deep on arrays and maps.
func valueEqual(a, b Value) bool {
	if a.k == KindInt && b.k == KindInt {
		return a.n == b.n
	}
	if af, ok := a.AsNumber(); ok {
		bf, ok := b.AsNumber()
		return ok && af == bf
	}
	if a.k != b.k {
		return false
	}
	switch a.k {
	case KindNil:
		return true
	case KindBool:
		return a.n == b.n
	case KindString:
		return a.str() == b.str()
	case KindArray:
		x, y := a.arr().Elems, b.arr().Elems
		return slices.EqualFunc(x, y, valueEqual)
	default:
		x, y := a.dict().M, b.dict().M
		if len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !valueEqual(v, w) {
				return false
			}
		}
		return true
	}
}

// indexValue implements x[i].
func indexValue(x, i Value) (Value, error) {
	switch x.k {
	case KindArray:
		elems := x.arr().Elems
		if i.k != KindInt {
			return Value{}, rtErrf("array index must be int, got %s", TypeName(i))
		}
		if idx := i.int(); idx < 0 || idx >= int64(len(elems)) {
			return Value{}, rtErrf("array index %d out of range [0,%d)", idx, len(elems))
		}
		return elems[i.int()], nil
	case KindMap:
		if i.k != KindString {
			return Value{}, rtErrf("map key must be string, got %s", TypeName(i))
		}
		return x.dict().M[i.str()], nil // missing keys yield nil
	case KindString:
		s := x.str()
		if i.k != KindInt {
			return Value{}, rtErrf("string index must be int, got %s", TypeName(i))
		}
		if idx := i.int(); idx < 0 || idx >= int64(len(s)) {
			return Value{}, rtErrf("string index %d out of range [0,%d)", idx, len(s))
		}
		return Int(int64(s[i.int()])), nil
	}
	return Value{}, rtErrf("cannot index %s", TypeName(x))
}

// setIndex implements x[i] = v.
func setIndex(x, i, v Value) error {
	switch x.k {
	case KindArray:
		elems := x.arr().Elems
		if i.k != KindInt {
			return rtErrf("array index must be int, got %s", TypeName(i))
		}
		if idx := i.int(); idx < 0 || idx >= int64(len(elems)) {
			return rtErrf("array index %d out of range [0,%d)", idx, len(elems))
		}
		elems[i.int()] = v
		return nil
	case KindMap:
		if i.k != KindString {
			return rtErrf("map key must be string, got %s", TypeName(i))
		}
		x.dict().M[i.str()] = v
		return nil
	}
	return rtErrf("cannot assign into %s", TypeName(x))
}
