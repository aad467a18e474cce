package dpl

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// HostFunc is a function the elastic process exposes to delegated
// programs. The paper's translator rule — delegated programs "access a
// predefined set of functions" and lose "their ability to invoke
// arbitrary external or internal functions" — is enforced by requiring
// every non-local call in a DP to resolve in a Bindings table at
// translation time.
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
// the order OpCallHost operands refer to.
func (b *Bindings) NamesByIndex() []string {
	out := make([]string, len(b.funcs))
	for i, f := range b.funcs {
		out[i] = f.name
	}
	return out
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
		return nil, rtErrf("host function index %d out of range", idx)
	}
	f := b.funcs[idx]
	if f.arity >= 0 && len(args) != f.arity {
		return nil, rtErrf("%s expects %d arguments, got %d", f.name, f.arity, len(args))
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
		switch x := args[0].(type) {
		case string:
			return int64(len(x)), nil
		case *Array:
			return int64(len(x.Elems)), nil
		case *Map:
			return int64(len(x.M)), nil
		default:
			return nil, rtErrf("len of %s", TypeName(x))
		}
	})
	b.Register("append", -1, func(_ *Env, args []Value) (Value, error) {
		if len(args) < 1 {
			return nil, rtErrf("append needs an array")
		}
		a, ok := args[0].(*Array)
		if !ok {
			return nil, rtErrf("append to %s", TypeName(args[0]))
		}
		a.Elems = append(a.Elems, args[1:]...)
		return a, nil
	})
	b.Register("keys", 1, func(_ *Env, args []Value) (Value, error) {
		m, ok := args[0].(*Map)
		if !ok {
			return nil, rtErrf("keys of %s", TypeName(args[0]))
		}
		ks := make([]string, 0, len(m.M))
		for k := range m.M {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		out := &Array{Elems: make([]Value, len(ks))}
		for i, k := range ks {
			out.Elems[i] = k
		}
		return out, nil
	})
	b.Register("delete", 2, func(_ *Env, args []Value) (Value, error) {
		m, ok := args[0].(*Map)
		if !ok {
			return nil, rtErrf("delete from %s", TypeName(args[0]))
		}
		k, ok := args[1].(string)
		if !ok {
			return nil, rtErrf("delete key must be string")
		}
		delete(m.M, k)
		return nil, nil
	})
	b.Register("str", 1, func(_ *Env, args []Value) (Value, error) {
		return FormatValue(args[0]), nil
	})
	b.Register("int", 1, func(_ *Env, args []Value) (Value, error) {
		switch x := args[0].(type) {
		case int64:
			return x, nil
		case float64:
			return int64(x), nil
		case bool:
			if x {
				return int64(1), nil
			}
			return int64(0), nil
		case string:
			var v int64
			neg := false
			s := x
			if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
				neg = s[0] == '-'
				s = s[1:]
			}
			if s == "" {
				return nil, rtErrf("int(%q): not a number", x)
			}
			for _, c := range s {
				if c < '0' || c > '9' {
					return nil, rtErrf("int(%q): not a number", x)
				}
				v = v*10 + int64(c-'0')
			}
			if neg {
				v = -v
			}
			return v, nil
		default:
			return nil, rtErrf("int of %s", TypeName(x))
		}
	})
	b.Register("float", 1, func(_ *Env, args []Value) (Value, error) {
		if f, ok := toFloat(args[0]); ok {
			return f, nil
		}
		return nil, rtErrf("float of %s", TypeName(args[0]))
	})
	b.Register("abs", 1, func(_ *Env, args []Value) (Value, error) {
		switch x := args[0].(type) {
		case int64:
			if x < 0 {
				return -x, nil
			}
			return x, nil
		case float64:
			return math.Abs(x), nil
		default:
			return nil, rtErrf("abs of %s", TypeName(x))
		}
	})
	minmax := func(isMin bool) HostFunc {
		return func(_ *Env, args []Value) (Value, error) {
			if len(args) == 0 {
				return nil, rtErrf("min/max of nothing")
			}
			best := args[0]
			for _, v := range args[1:] {
				c, err := compare(TokLt, v, best)
				if err != nil {
					return nil, err
				}
				if c.(bool) == isMin {
					best = v
				}
			}
			return best, nil
		}
	}
	b.Register("min", -1, minmax(true))
	b.Register("max", -1, minmax(false))
	b.Register("contains", 2, func(_ *Env, args []Value) (Value, error) {
		switch x := args[0].(type) {
		case string:
			sub, ok := args[1].(string)
			if !ok {
				return nil, rtErrf("contains(string, %s)", TypeName(args[1]))
			}
			return containsString(x, sub), nil
		case *Array:
			for _, e := range x.Elems {
				if valueEqual(e, args[1]) {
					return true, nil
				}
			}
			return false, nil
		case *Map:
			k, ok := args[1].(string)
			if !ok {
				return nil, rtErrf("contains(map, %s)", TypeName(args[1]))
			}
			_, present := x.M[k]
			return present, nil
		default:
			return nil, rtErrf("contains on %s", TypeName(x))
		}
	})
	b.Register("substr", 3, func(_ *Env, args []Value) (Value, error) {
		s, ok1 := args[0].(string)
		i, ok2 := args[1].(int64)
		j, ok3 := args[2].(int64)
		if !ok1 || !ok2 || !ok3 {
			return nil, rtErrf("substr(string, int, int)")
		}
		if i < 0 || j < i || j > int64(len(s)) {
			return nil, rtErrf("substr bounds [%d,%d) out of range for length %d", i, j, len(s))
		}
		return s[i:j], nil
	})
	b.Register("split", 2, func(_ *Env, args []Value) (Value, error) {
		s, ok1 := args[0].(string)
		sep, ok2 := args[1].(string)
		if !ok1 || !ok2 || sep == "" {
			return nil, rtErrf("split(string, non-empty string)")
		}
		// Count matches the scan below (leftmost, non-overlapping), so
		// the appends never grow the slice.
		out := &Array{Elems: make([]Value, 0, strings.Count(s, sep)+1)}
		start := 0
		for i := 0; i+len(sep) <= len(s); {
			if s[i:i+len(sep)] == sep {
				out.Elems = append(out.Elems, s[start:i])
				i += len(sep)
				start = i
			} else {
				i++
			}
		}
		out.Elems = append(out.Elems, s[start:])
		return out, nil
	})
	b.Register("sprintf", -1, func(_ *Env, args []Value) (Value, error) {
		if len(args) == 0 {
			return nil, rtErrf("sprintf needs a format string")
		}
		f, ok := args[0].(string)
		if !ok {
			return nil, rtErrf("sprintf format must be string")
		}
		return miniSprintf(f, args[1:])
	})
	return b
}

func containsString(s, sub string) bool {
	if sub == "" {
		return true
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// miniSprintf supports %v %d %f %s %% — enough for agent reports
// without exposing the full fmt machinery.
func miniSprintf(f string, args []Value) (Value, error) {
	var out []byte
	ai := 0
	for i := 0; i < len(f); i++ {
		if f[i] != '%' {
			out = append(out, f[i])
			continue
		}
		i++
		if i >= len(f) {
			return nil, rtErrf("sprintf: trailing %%")
		}
		if f[i] == '%' {
			out = append(out, '%')
			continue
		}
		if ai >= len(args) {
			return nil, rtErrf("sprintf: not enough arguments")
		}
		v := args[ai]
		ai++
		switch f[i] {
		case 'v', 's':
			out = append(out, FormatValue(v)...)
		case 'd':
			switch x := v.(type) {
			case int64:
				out = append(out, FormatValue(x)...)
			case float64:
				out = append(out, FormatValue(int64(x))...)
			default:
				return nil, rtErrf("sprintf: %%d on %s", TypeName(v))
			}
		case 'f':
			fv, ok := toFloat(v)
			if !ok {
				return nil, rtErrf("sprintf: %%f on %s", TypeName(v))
			}
			out = append(out, fmt.Sprintf("%.6f", fv)...)
		default:
			return nil, rtErrf("sprintf: unsupported verb %%%c", f[i])
		}
	}
	if ai != len(args) {
		return nil, rtErrf("sprintf: %d extra arguments", len(args)-ai)
	}
	return string(out), nil
}
