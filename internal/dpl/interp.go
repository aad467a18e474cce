package dpl

import (
	"context"
	"fmt"
)

// Interp is a reference tree-walking interpreter with semantics
// identical to the bytecode VM. It exists for two purposes:
//
//  1. cross-checking — the package's property tests run random programs
//     through both engines and require identical results; and
//  2. the Table 2.1 ablation — language-based agent systems of the
//     paper's era (Safe-TCL and early Java) interpreted scripts
//     directly, so BenchmarkT1InterpreterOverhead compares this engine
//     against the compiled VM to quantify the "interpreted script" row.
//
// The interpreter has no Control gate or step quota; it is not used by
// the elastic runtime.
type Interp struct {
	prog     *Program
	bindings *Bindings
	funcs    map[string]*FuncDecl
	globals  map[string]Value
	ctx      context.Context
}

// NewInterp validates prog against bindings (same Translator rules as
// Compile) and prepares an interpreter.
func NewInterp(prog *Program, bindings *Bindings) (*Interp, error) {
	if errs := Check(prog, bindings); len(errs) > 0 {
		return nil, fmt.Errorf("dpl: translation rejected: %w", errs[0])
	}
	it := &Interp{
		prog:     prog,
		bindings: bindings,
		funcs:    make(map[string]*FuncDecl),
		globals:  make(map[string]Value),
	}
	for _, f := range prog.Funcs {
		it.funcs[f.Name] = f
	}
	return it, nil
}

// control-flow signals, conveyed as errors internally.
type breakSignal struct{}
type continueSignal struct{}
type returnSignal struct{ v Value }

func (breakSignal) Error() string    { return "break" }
func (continueSignal) Error() string { return "continue" }
func (returnSignal) Error() string   { return "return" }

// iscope is the interpreter's scope chain.
type iscope struct {
	parent *iscope
	vars   map[string]Value
}

func (s *iscope) lookup(name string) (*iscope, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if _, ok := cur.vars[name]; ok {
			return cur, true
		}
	}
	return nil, false
}

// Run evaluates global initializers (once) and calls the entry function.
// Like VM.Run it takes and returns plain Go values (see FromGo).
func (it *Interp) Run(ctx context.Context, entry string, args ...any) (any, error) {
	it.ctx = ctx
	defer func() { it.ctx = nil }()
	if len(it.globals) == 0 {
		for _, g := range it.prog.Globals {
			var v Value
			if g.Init != nil {
				var err error
				v, err = it.eval(g.Init, &iscope{vars: map[string]Value{}})
				if err != nil {
					return nil, fmt.Errorf("dpl: global initialization: %w", err)
				}
			}
			it.globals[g.Name] = v
		}
	}
	f, ok := it.funcs[entry]
	if !ok {
		return nil, fmt.Errorf("dpl: no entry function %q", entry)
	}
	if len(args) != len(f.Params) {
		return nil, fmt.Errorf("dpl: entry %q expects %d arguments, got %d", entry, len(f.Params), len(args))
	}
	vals := make([]Value, len(args))
	for i, a := range args {
		var err error
		if vals[i], err = FromGo(a); err != nil {
			return nil, err
		}
	}
	v, err := it.call(f, vals)
	return ToGo(v), err
}

func (it *Interp) call(f *FuncDecl, args []Value) (Value, error) {
	s := &iscope{vars: make(map[string]Value, len(f.Params))}
	for i, p := range f.Params {
		s.vars[p] = args[i]
	}
	err := it.execBlock(f.Body, &iscope{parent: s, vars: map[string]Value{}})
	if err != nil {
		if rs, ok := err.(returnSignal); ok {
			return rs.v, nil
		}
		return Value{}, err
	}
	return Value{}, nil
}

func (it *Interp) execBlock(b *Block, s *iscope) error {
	for _, st := range b.Stmts {
		if err := it.exec(st, s); err != nil {
			return err
		}
	}
	return nil
}

func (it *Interp) exec(st Stmt, s *iscope) error {
	switch n := st.(type) {
	case *VarDecl:
		var v Value
		if n.Init != nil {
			var err error
			v, err = it.eval(n.Init, s)
			if err != nil {
				return err
			}
		}
		s.vars[n.Name] = v
		return nil
	case *Block:
		return it.execBlock(n, &iscope{parent: s, vars: map[string]Value{}})
	case *AssignStmt:
		v, err := it.eval(n.Value, s)
		if err != nil {
			return err
		}
		switch t := n.Target.(type) {
		case *Ident:
			if n.Op != TokAssign {
				cur, err := it.eval(t, s)
				if err != nil {
					return err
				}
				op := TokPlus
				if n.Op == TokMinusAssign {
					op = TokMinus
				}
				v, err = Binary(op, cur, v)
				if err != nil {
					return err
				}
			}
			if sc, ok := s.lookup(t.Name); ok {
				sc.vars[t.Name] = v
				return nil
			}
			if _, ok := it.globals[t.Name]; ok {
				it.globals[t.Name] = v
				return nil
			}
			return rtErrf("unresolved variable %q", t.Name)
		case *IndexExpr:
			x, err := it.eval(t.X, s)
			if err != nil {
				return err
			}
			i, err := it.eval(t.I, s)
			if err != nil {
				return err
			}
			return setIndex(x, i, v)
		default:
			return rtErrf("bad assignment target")
		}
	case *IfStmt:
		cond, err := it.eval(n.Cond, s)
		if err != nil {
			return err
		}
		if Truthy(cond) {
			return it.execBlock(n.Then, &iscope{parent: s, vars: map[string]Value{}})
		}
		if n.Else != nil {
			return it.exec(n.Else, &iscope{parent: s, vars: map[string]Value{}})
		}
		return nil
	case *WhileStmt:
		for {
			cond, err := it.eval(n.Cond, s)
			if err != nil {
				return err
			}
			if !Truthy(cond) {
				return nil
			}
			err = it.execBlock(n.Body, &iscope{parent: s, vars: map[string]Value{}})
			switch err.(type) {
			case nil, continueSignal:
			case breakSignal:
				return nil
			default:
				return err
			}
		}
	case *ForStmt:
		fs := &iscope{parent: s, vars: map[string]Value{}}
		if n.Init != nil {
			if err := it.exec(n.Init, fs); err != nil {
				return err
			}
		}
		for {
			if n.Cond != nil {
				cond, err := it.eval(n.Cond, fs)
				if err != nil {
					return err
				}
				if !Truthy(cond) {
					return nil
				}
			}
			err := it.execBlock(n.Body, &iscope{parent: fs, vars: map[string]Value{}})
			switch err.(type) {
			case nil, continueSignal:
			case breakSignal:
				return nil
			default:
				return err
			}
			if n.Post != nil {
				if err := it.exec(n.Post, fs); err != nil {
					return err
				}
			}
		}
	case *BreakStmt:
		return breakSignal{}
	case *ContinueStmt:
		return continueSignal{}
	case *ReturnStmt:
		if n.Value == nil {
			return returnSignal{}
		}
		v, err := it.eval(n.Value, s)
		if err != nil {
			return err
		}
		return returnSignal{v: v}
	case *ExprStmt:
		_, err := it.eval(n.X, s)
		return err
	default:
		return rtErrf("unknown statement %T", st)
	}
}

func (it *Interp) eval(e Expr, s *iscope) (Value, error) {
	switch n := e.(type) {
	case *IntLit:
		return Int(n.V), nil
	case *FloatLit:
		return Float(n.V), nil
	case *StringLit:
		return Str(n.V), nil
	case *BoolLit:
		return Bool(n.V), nil
	case *NilLit:
		return Value{}, nil
	case *Ident:
		if sc, ok := s.lookup(n.Name); ok {
			return sc.vars[n.Name], nil
		}
		if v, ok := it.globals[n.Name]; ok {
			return v, nil
		}
		return Value{}, rtErrf("unresolved variable %q", n.Name)
	case *UnaryExpr:
		x, err := it.eval(n.X, s)
		if err != nil {
			return Value{}, err
		}
		if n.Op == TokBang {
			return Bool(!Truthy(x)), nil
		}
		return Negate(x)
	case *BinaryExpr:
		l, err := it.eval(n.L, s)
		if err != nil {
			return Value{}, err
		}
		switch n.Op {
		case TokAndAnd:
			if !Truthy(l) {
				return l, nil
			}
			return it.eval(n.R, s)
		case TokOrOr:
			if Truthy(l) {
				return l, nil
			}
			return it.eval(n.R, s)
		}
		r, err := it.eval(n.R, s)
		if err != nil {
			return Value{}, err
		}
		return Binary(n.Op, l, r)
	case *IndexExpr:
		x, err := it.eval(n.X, s)
		if err != nil {
			return Value{}, err
		}
		i, err := it.eval(n.I, s)
		if err != nil {
			return Value{}, err
		}
		return indexValue(x, i)
	case *ArrayLit:
		a := &Array{Elems: make([]Value, len(n.Elems))}
		for i, el := range n.Elems {
			v, err := it.eval(el, s)
			if err != nil {
				return Value{}, err
			}
			a.Elems[i] = v
		}
		return ArrayValue(a), nil
	case *MapLit:
		m := NewMap()
		for i := range n.Keys {
			k, err := it.eval(n.Keys[i], s)
			if err != nil {
				return Value{}, err
			}
			ks, ok := k.AsString()
			if !ok {
				return Value{}, rtErrf("map key must be string, got %s", TypeName(k))
			}
			v, err := it.eval(n.Vals[i], s)
			if err != nil {
				return Value{}, err
			}
			m.M[ks] = v
		}
		return MapValue(m), nil
	case *CallExpr:
		args := make([]Value, len(n.Args))
		for i, a := range n.Args {
			v, err := it.eval(a, s)
			if err != nil {
				return Value{}, err
			}
			args[i] = v
		}
		if f, ok := it.funcs[n.Name]; ok {
			return it.call(f, args)
		}
		if hi, _, ok := it.bindings.Lookup(n.Name); ok {
			return it.bindings.Call(hi, &Env{}, args)
		}
		return Value{}, rtErrf("unbound call %q", n.Name)
	default:
		return Value{}, rtErrf("unknown expression %T", e)
	}
}
