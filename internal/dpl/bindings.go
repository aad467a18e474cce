package dpl

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// HostFunc is a function the elastic process exposes to delegated
// programs. The paper's translator rule — delegated programs "access a
// predefined set of functions" and lose "their ability to invoke
// arbitrary external or internal functions" — is enforced by requiring
// every non-local call in a DP to resolve in a Bindings table at
// translation time.
//
// Arguments and result are Values: a HostFunc reads its arguments with
// the As accessors and builds its result with the constructors (Int,
// Str, ArrayOf, ...), so a counter or a string it returns costs no heap
// object of its own.
//
// Non-retention contract: env and args are only valid for the duration
// of the call. The VM passes args as a window into its live value stack
// and reuses one Env per VM across all host calls, so a HostFunc that
// needs either beyond its return must copy (the args slice is capped,
// so appending to it is safe but still allocates a copy). Values read
// out of args may be retained freely — only the slice and the Env are
// recycled.
type HostFunc func(env *Env, args []Value) (Value, error)

// Env is the per-instance execution environment handed to host
// functions: it carries the executing VM (for context, instance
// identity and accounting) and is supplied by the elastic runtime. One
// Env per VM is reused across calls — see the HostFunc non-retention
// contract.
type Env struct {
	// VM is the executing virtual machine, never nil during a call.
	VM *VM
}

type binding struct {
	name  string
	arity int // -1 = variadic
	fn    HostFunc
}

// Bindings is the allowed-function table of an elastic process. The
// zero value has no functions; Std() returns a table preloaded with the
// pure builtins every DP may use.
type Bindings struct {
	byName map[string]int
	funcs  []binding
	names  []string // funcs' names, shared by every program compiled against the table
}

// NewBindings returns an empty table.
func NewBindings() *Bindings {
	return &Bindings{byName: make(map[string]int)}
}

// Register adds or replaces a host function. arity is the required
// argument count, or -1 for variadic.
func (b *Bindings) Register(name string, arity int, fn HostFunc) {
	if i, ok := b.byName[name]; ok {
		b.funcs[i] = binding{name: name, arity: arity, fn: fn}
		return
	}
	b.byName[name] = len(b.funcs)
	b.funcs = append(b.funcs, binding{name: name, arity: arity, fn: fn})
	b.names = append(b.names, name)
}

// Lookup returns the index and arity of a bound function.
func (b *Bindings) Lookup(name string) (idx, arity int, ok bool) {
	if b == nil {
		return 0, 0, false
	}
	i, ok := b.byName[name]
	if !ok {
		return 0, 0, false
	}
	return i, b.funcs[i].arity, true
}

// Names returns the sorted names of all bound functions.
func (b *Bindings) Names() []string {
	out := make([]string, 0, len(b.byName))
	for n := range b.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NamesByIndex returns function names in registration (index) order —
// the order OpCallHost operands refer to. The table keeps the list and
// every caller shares it: it is capped, so appending to it copies, and
// a later Register does not change what an earlier caller got.
func (b *Bindings) NamesByIndex() []string {
	return b.names[:len(b.names):len(b.names)]
}

// Clone returns a copy of the table that can be extended independently.
func (b *Bindings) Clone() *Bindings {
	c := NewBindings()
	for _, f := range b.funcs {
		c.Register(f.name, f.arity, f.fn)
	}
	return c
}

// Call invokes the idx'th bound function directly. It exists for
// embedders that wrap one Bindings table inside another (the MbD server
// merges the MCVA's view services this way).
func (b *Bindings) Call(idx int, env *Env, args []Value) (Value, error) {
	if idx < 0 || idx >= len(b.funcs) {
		return Value{}, rtErrf("host function index %d out of range", idx)
	}
	f := b.funcs[idx]
	if f.arity >= 0 && len(args) != f.arity {
		return Value{}, rtErrf("%s expects %d arguments, got %d", f.name, f.arity, len(args))
	}
	return f.fn(env, args)
}

// Std returns a Bindings table preloaded with the pure builtin
// functions available to every delegated program:
//
//	len(x)            length of a string, array or map
//	append(a, v...)   append to an array, returning it
//	keys(m)           sorted keys of a map
//	delete(m, k)      remove a map key
//	str(v)            render any value as a string
//	int(v)            convert to int (truncating floats, parsing strings)
//	float(v)          convert to float
//	abs(x) min(...) max(...)  numeric helpers
//	contains(s, sub)  substring / array-membership / map-key test
//	substr(s, i, j)   substring [i, j)
//	split(s, sep)     split a string into an array
//	sprintf(f, v...)  minimal %v/%d/%f/%s formatting
func Std() *Bindings {
	b := NewBindings()
	b.Register("len", 1, func(_ *Env, args []Value) (Value, error) {
		switch x := args[0]; x.k {
		case KindString:
			return Int(int64(x.n)), nil
		case KindArray:
			return Int(int64(len(x.arr().Elems))), nil
		case KindMap:
			return Int(int64(len(x.dict().M))), nil
		default:
			return Value{}, rtErrf("len of %s", TypeName(x))
		}
	})
	b.Register("append", -1, func(_ *Env, args []Value) (Value, error) {
		if len(args) < 1 {
			return Value{}, rtErrf("append needs an array")
		}
		a, ok := args[0].AsArray()
		if !ok {
			return Value{}, rtErrf("append to %s", TypeName(args[0]))
		}
		a.Elems = append(a.Elems, args[1:]...)
		return args[0], nil
	})
	b.Register("keys", 1, func(_ *Env, args []Value) (Value, error) {
		m, ok := args[0].AsMap()
		if !ok {
			return Value{}, rtErrf("keys of %s", TypeName(args[0]))
		}
		ks := make([]Value, 0, len(m.M))
		for k := range m.M {
			ks = append(ks, Str(k))
		}
		slices.SortFunc(ks, func(x, y Value) int { return strings.Compare(x.str(), y.str()) })
		return ArrayOf(ks...), nil
	})
	b.Register("delete", 2, func(_ *Env, args []Value) (Value, error) {
		m, ok := args[0].AsMap()
		if !ok {
			return Value{}, rtErrf("delete from %s", TypeName(args[0]))
		}
		k, ok := args[1].AsString()
		if !ok {
			return Value{}, rtErrf("delete key must be string")
		}
		delete(m.M, k)
		return Value{}, nil
	})
	b.Register("str", 1, func(_ *Env, args []Value) (Value, error) {
		if args[0].k == KindString {
			return args[0], nil
		}
		return StrBytes(appendValue(nil, args[0])), nil
	})
	b.Register("int", 1, func(_ *Env, args []Value) (Value, error) {
		switch x := args[0]; x.k {
		case KindInt:
			return x, nil
		case KindFloat:
			return Int(int64(x.float())), nil
		case KindBool:
			return Int(int64(x.n)), nil
		case KindString:
			var v int64
			neg := false
			s := x.str()
			if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
				neg = s[0] == '-'
				s = s[1:]
			}
			if s == "" {
				return Value{}, rtErrf("int(%q): not a number", x.str())
			}
			for _, c := range s {
				if c < '0' || c > '9' {
					return Value{}, rtErrf("int(%q): not a number", x.str())
				}
				v = v*10 + int64(c-'0')
			}
			if neg {
				v = -v
			}
			return Int(v), nil
		default:
			return Value{}, rtErrf("int of %s", TypeName(x))
		}
	})
	b.Register("float", 1, func(_ *Env, args []Value) (Value, error) {
		if f, ok := args[0].AsNumber(); ok {
			return Float(f), nil
		}
		return Value{}, rtErrf("float of %s", TypeName(args[0]))
	})
	b.Register("abs", 1, func(_ *Env, args []Value) (Value, error) {
		switch x := args[0]; x.k {
		case KindInt:
			if x.int() < 0 {
				return Int(-x.int()), nil
			}
			return x, nil
		case KindFloat:
			return Float(math.Abs(x.float())), nil
		default:
			return Value{}, rtErrf("abs of %s", TypeName(x))
		}
	})
	minmax := func(isMin bool) HostFunc {
		return func(_ *Env, args []Value) (Value, error) {
			if len(args) == 0 {
				return Value{}, rtErrf("min/max of nothing")
			}
			best := args[0]
			for _, v := range args[1:] {
				c, err := compare(TokLt, v, best)
				if err != nil {
					return Value{}, err
				}
				if Truthy(c) == isMin {
					best = v
				}
			}
			return best, nil
		}
	}
	b.Register("min", -1, minmax(true))
	b.Register("max", -1, minmax(false))
	b.Register("contains", 2, func(_ *Env, args []Value) (Value, error) {
		switch x := args[0]; x.k {
		case KindString:
			sub, ok := args[1].AsString()
			if !ok {
				return Value{}, rtErrf("contains(string, %s)", TypeName(args[1]))
			}
			return Bool(strings.Contains(x.str(), sub)), nil
		case KindArray:
			return Bool(slices.ContainsFunc(x.arr().Elems, func(e Value) bool { return valueEqual(e, args[1]) })), nil
		case KindMap:
			k, ok := args[1].AsString()
			if !ok {
				return Value{}, rtErrf("contains(map, %s)", TypeName(args[1]))
			}
			_, present := x.dict().M[k]
			return Bool(present), nil
		default:
			return Value{}, rtErrf("contains on %s", TypeName(x))
		}
	})
	b.Register("substr", 3, func(_ *Env, args []Value) (Value, error) {
		s, ok1 := args[0].AsString()
		i, ok2 := args[1].AsInt()
		j, ok3 := args[2].AsInt()
		if !ok1 || !ok2 || !ok3 {
			return Value{}, rtErrf("substr(string, int, int)")
		}
		if i < 0 || j < i || j > int64(len(s)) {
			return Value{}, rtErrf("substr bounds [%d,%d) out of range for length %d", i, j, len(s))
		}
		return Str(s[i:j]), nil
	})
	b.Register("split", 2, func(_ *Env, args []Value) (Value, error) {
		s, ok1 := args[0].AsString()
		sep, ok2 := args[1].AsString()
		if !ok1 || !ok2 || sep == "" {
			return Value{}, rtErrf("split(string, non-empty string)")
		}
		// One element slice, sized by a count that matches the scan below
		// (leftmost, non-overlapping); the parts share s's bytes.
		parts := make([]Value, 0, strings.Count(s, sep)+1)
		for {
			i := strings.Index(s, sep)
			if i < 0 {
				break
			}
			parts = append(parts, Str(s[:i]))
			s = s[i+len(sep):]
		}
		return ArrayOf(append(parts, Str(s))...), nil
	})
	b.Register("sprintf", -1, func(_ *Env, args []Value) (Value, error) {
		if len(args) == 0 {
			return Value{}, rtErrf("sprintf needs a format string")
		}
		f, ok := args[0].AsString()
		if !ok {
			return Value{}, rtErrf("sprintf format must be string")
		}
		return miniSprintf(f, args[1:])
	})
	return b
}

// miniSprintf supports %v %d %f %s %% — enough for agent reports
// without exposing the full fmt machinery. The result owns the one
// buffer it is rendered into.
func miniSprintf(f string, args []Value) (Value, error) {
	out := make([]byte, 0, len(f)+8*len(args))
	ai := 0
	for i := 0; i < len(f); i++ {
		if f[i] != '%' {
			out = append(out, f[i])
			continue
		}
		i++
		if i >= len(f) {
			return Value{}, rtErrf("sprintf: trailing %%")
		}
		if f[i] == '%' {
			out = append(out, '%')
			continue
		}
		if ai >= len(args) {
			return Value{}, rtErrf("sprintf: not enough arguments")
		}
		v := args[ai]
		ai++
		switch f[i] {
		case 'v', 's':
			out = appendValue(out, v)
		case 'd':
			switch v.k {
			case KindInt:
				out = strconv.AppendInt(out, v.int(), 10)
			case KindFloat:
				out = strconv.AppendInt(out, int64(v.float()), 10)
			default:
				return Value{}, rtErrf("sprintf: %%d on %s", TypeName(v))
			}
		case 'f':
			fv, ok := v.AsNumber()
			if !ok {
				return Value{}, rtErrf("sprintf: %%f on %s", TypeName(v))
			}
			out = appendFixed6(out, fv)
		default:
			return Value{}, rtErrf("sprintf: unsupported verb %%%c", f[i])
		}
	}
	if ai != len(args) {
		return Value{}, rtErrf("sprintf: %d extra arguments", len(args)-ai)
	}
	return StrBytes(out), nil
}

// appendFixed6 appends v as strconv.AppendFloat(dst, v, 'f', 6, 64)
// does: the exact binary value rounded half to even at the sixth
// decimal. strconv computes fixed-precision 'f' in a multiprecision
// decimal of some 800 bytes, on the stack, which grows a goroutine's
// stack on its first sprintf; here the value splits into its integer
// part and its millionths, each in machine words.
func appendFixed6(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	exp := int(b>>52) & 0x7ff
	if exp == 0x7ff {
		return strconv.AppendFloat(dst, v, 'f', 6, 64) // NaN and ±Inf have no digits
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	mant := b & (1<<52 - 1)
	if exp == 0 {
		exp = 1 // subnormal
	} else {
		mant |= 1 << 52
	}
	// v = mant / 2^shift
	var ip, frac uint64 // the integer part and the millionths
	switch shift := 1075 - exp; {
	case shift <= -12: // past 2^64: an integer of up to 1024 bits
		return append(appendWide(dst, mant, -shift), ".000000"...)
	case shift <= 0:
		ip = mant << -shift
	case shift < 64:
		ip, frac = mant>>shift, millionths(mant&(1<<shift-1), shift)
	default:
		frac = millionths(mant, shift)
	}
	if frac == 1e6 {
		ip, frac = ip+1, 0
	}
	dst = strconv.AppendUint(dst, ip, 10)
	return appendDigits(append(dst, '.'), frac, 6)
}

// millionths returns x·10⁶ / 2^s rounded half to even, for x < 2^53
// and x < 2^s.
func millionths(x uint64, s int) uint64 {
	if s > 74 {
		return 0 // x·10⁶ < 2^73, under half of 2^s
	}
	hi, lo := bits.Mul64(x, 1e6)
	var q, half, sticky uint64 // the quotient, the bit below it, the bits below that
	switch {
	case s < 64:
		q, half, sticky = hi<<(64-s)|lo>>s, lo>>(s-1)&1, lo&(1<<(s-1)-1)
	case s == 64:
		q, half, sticky = hi, lo>>63, lo&(1<<63-1)
	default:
		q, half, sticky = hi>>(s-64), hi>>(s-65)&1, hi&(1<<(s-65)-1)|lo
	}
	if half == 1 && (sticky != 0 || q&1 == 1) {
		q++
	}
	return q
}

// appendWide appends the decimal digits of mant·2^shift, mant < 2^53
// and shift ≤ 971, by dividing its 64-bit words by 10^19 in turn.
func appendWide(dst []byte, mant uint64, shift int) []byte {
	var w [17]uint64 // little-endian
	w[shift/64] = mant << (shift % 64)
	if shift%64 != 0 {
		w[shift/64+1] = mant >> (64 - shift%64)
	}
	var chunks [17]uint64 // base-10^19 digits, least significant first
	n, k := shift/64+2, 0
	for n > 0 {
		var r uint64
		for i := n - 1; i >= 0; i-- {
			w[i], r = bits.Div64(r, w[i], 1e19)
		}
		chunks[k], k = r, k+1
		for n > 0 && w[n-1] == 0 {
			n--
		}
	}
	dst = strconv.AppendUint(dst, chunks[k-1], 10)
	for i := k - 2; i >= 0; i-- {
		dst = appendDigits(dst, chunks[i], 19)
	}
	return dst
}

// appendDigits appends x in exactly width decimal digits, zero-padded.
func appendDigits(dst []byte, x uint64, width int) []byte {
	var d [20]byte
	for i := width - 1; i >= 0; i-- {
		d[i], x = byte('0'+x%10), x/10
	}
	return append(dst, d[:width]...)
}
