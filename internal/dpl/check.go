package dpl

import "fmt"

// The Translator. The paper's elastic process compiles a delegated
// program and "if the dp violates any of a set of defined rules for the
// given language, the dp is rejected". Check enforces those rules, each
// reported under its own code:
//
//   - every called function must be either defined in the DP itself or
//     present in the host's allowed-function table (Bindings) — no
//     binding to arbitrary external functions (CodeUnboundCall);
//   - every referenced variable must be declared (CodeUndeclared);
//   - user-function calls must match the declared arity; fixed-arity
//     host calls likewise (CodeArity);
//   - break/continue must appear inside a loop (CodeLoopControl);
//   - function, global, parameter, and same-scope variable names must
//     be unique (CodeRedeclared), and no function may take a host
//     function's name (CodeShadowsHost).
//
// Check is also the one name resolver. It binds every identifier to
// its global index or frame slot, every call to its function or host
// index, and numbers each function's frame (FuncDecl.Locals); Compile
// and the static analyzer read those bindings and keep no scope tables
// of their own.

// resolver is Check's state over one program, in its Scratch.
type resolver struct {
	prog     *Program
	bindings *Bindings
	funcs    map[string]int // each function name's first declaration
	// scope lists the variables visible at the point being resolved,
	// innermost last: the globals, then the current function's
	// parameters and locals. A scope truncates it back when it ends, and
	// scope[top:] is the innermost one, where a redeclaration is an error.
	scope []scoped
	top   int
	loops int           // loops enclosing the statement being resolved
	spine []*BinaryExpr // the left spines of the operator chains being resolved
	// locals backs every function's Locals; base is where the current
	// function's frame starts in it.
	locals []string
	base   int
	diags  []Diagnostic
}

// scoped is one visible variable and where it lives.
type scoped struct {
	name   string
	global bool
	slot   int
}

// Check validates prog against the host's allowed-function table,
// binding its names, and returns the translator diagnostics (all error
// severity, sorted by position), or nil when the program is accepted.
// A program is resolved once per Bindings: checking it again against
// the same table returns the first verdict. Check writes the bindings
// into prog, so one Program must not be checked, compiled or analyzed
// from several goroutines at once. It runs on the scratch prog was
// parsed in.
func Check(prog *Program, bindings *Bindings) []Diagnostic {
	return prog.scratch().check(prog, bindings)
}

// check is Check on s.
func (s *Scratch) check(prog *Program, bindings *Bindings) []Diagnostic {
	if prog.checked == nil || prog.checked != bindings {
		prog.diags = s.r.resolve(prog, bindings)
		prog.checked = bindings
	}
	return prog.diags
}

func (r *resolver) resolve(prog *Program, bindings *Bindings) []Diagnostic {
	// Few functions declare more than a variable per top-level
	// statement, so the frames seldom outgrow this size.
	frames := 0
	for _, f := range prog.Funcs {
		frames += len(f.Params) + len(f.Body.Stmts)
	}
	r.reset(prog, bindings)
	r.locals = make([]string, 0, frames)
	for i, f := range prog.Funcs {
		if prev, dup := r.funcs[f.Name]; dup {
			r.errorf(CodeRedeclared, f.Position(), "function %q redefined (first at %s)", f.Name, prog.Funcs[prev].Position())
			continue
		}
		if _, _, isHost := bindings.Lookup(f.Name); isHost {
			r.errorf(CodeShadowsHost, f.Position(), "function %q shadows a host function", f.Name)
		}
		r.funcs[f.Name] = i
	}
	for i, g := range prog.Globals {
		if r.declared(0, g.Name) {
			r.errorf(CodeRedeclared, g.Position(), "global %q redeclared", g.Name)
		}
		if g.Init != nil {
			// Global initializers run before any function; they may
			// reference earlier globals only.
			r.expr(g.Init)
		}
		g.Slot = i
		r.scope = append(r.scope, scoped{name: g.Name, global: true, slot: i})
	}
	nGlobals := len(r.scope)
	for _, f := range prog.Funcs {
		r.base = len(r.locals)
		for _, p := range f.Params {
			if r.declared(nGlobals, p) {
				r.errorf(CodeRedeclared, f.Position(), "parameter %q repeated in %q", p, f.Name)
			}
			r.declare(p)
		}
		r.block(f.Body.Stmts)
		f.Locals = r.locals[r.base:len(r.locals):len(r.locals)]
		r.scope = r.scope[:nGlobals]
	}
	if len(r.diags) > 1 {
		SortDiags(r.diags)
	}
	return r.diags
}

// reset readies r for prog, clearing it of the program before, and
// returns the bytes its buffers hold.
func (r *resolver) reset(prog *Program, bindings *Bindings) int {
	if r.funcs == nil {
		r.funcs = make(map[string]int)
	}
	n := len(r.funcs)*mapEntry + clearAll(r.scope) + clearAll(r.spine)
	clear(r.funcs)
	*r = resolver{prog: prog, bindings: bindings, funcs: r.funcs, scope: r.scope[:0], spine: r.spine[:0]}
	return n
}

func (r *resolver) errorf(code string, pos Pos, format string, args ...any) {
	r.diags = append(r.diags, Diagnostic{Code: code, Sev: SevError, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// declared reports whether scope[from:] already holds name.
func (r *resolver) declared(from int, name string) bool {
	for _, v := range r.scope[from:] {
		if v.name == name {
			return true
		}
	}
	return false
}

// declare gives name the current function's next frame slot and brings
// it into scope.
func (r *resolver) declare(name string) int {
	slot := len(r.locals) - r.base
	r.locals = append(r.locals, name)
	r.scope = append(r.scope, scoped{name: name, slot: slot})
	return slot
}

// bind binds n to the innermost visible variable of its name,
// reporting whether there is one.
func (r *resolver) bind(n *Ident) bool {
	for i := len(r.scope) - 1; i >= 0; i-- {
		if v := r.scope[i]; v.name == n.Name {
			n.Global, n.Slot = v.global, v.slot
			return true
		}
	}
	n.Global, n.Slot = false, -1
	return false
}

// block resolves stmts as one scope.
func (r *resolver) block(stmts []Stmt) {
	outer, top := len(r.scope), r.top
	r.top = outer
	for _, st := range stmts {
		r.stmt(st)
	}
	r.scope, r.top = r.scope[:outer], top
}

func (r *resolver) stmt(st Stmt) {
	switch n := st.(type) {
	case *VarDecl:
		if n.Init != nil {
			r.expr(n.Init)
		}
		if r.declared(r.top, n.Name) {
			r.errorf(CodeRedeclared, n.Position(), "variable %q redeclared in this scope", n.Name)
		}
		n.Slot = r.declare(n.Name)
	case *Block:
		r.block(n.Stmts)
	case *AssignStmt:
		if t, ok := n.Target.(*Ident); ok {
			if !r.bind(t) {
				r.errorf(CodeUndeclared, t.Position(), "assignment to undeclared variable %q", t.Name)
			}
		} else {
			r.expr(n.Target)
		}
		r.expr(n.Value)
	case *IfStmt:
		r.expr(n.Cond)
		r.block(n.Then.Stmts)
		if n.Else != nil {
			r.stmt(n.Else)
		}
	case *WhileStmt:
		r.expr(n.Cond)
		r.loops++
		r.block(n.Body.Stmts)
		r.loops--
	case *ForStmt:
		// One scope holds the loop variable and the body's own, so the
		// body may not redeclare it; Post sees only the former. Slots
		// follow the order the code is laid out in: Init, Cond, Body,
		// Post.
		outer, top := len(r.scope), r.top
		r.top = outer
		r.loops++
		if n.Init != nil {
			r.stmt(n.Init)
		}
		if n.Cond != nil {
			r.expr(n.Cond)
		}
		inner := len(r.scope)
		for _, st := range n.Body.Stmts {
			r.stmt(st)
		}
		r.scope = r.scope[:inner]
		if n.Post != nil {
			r.stmt(n.Post)
		}
		r.loops--
		r.scope, r.top = r.scope[:outer], top
	case *BreakStmt:
		if r.loops == 0 {
			r.errorf(CodeLoopControl, n.Position(), "break outside loop")
		}
	case *ContinueStmt:
		if r.loops == 0 {
			r.errorf(CodeLoopControl, n.Position(), "continue outside loop")
		}
	case *ReturnStmt:
		if n.Value != nil {
			r.expr(n.Value)
		}
	case *ExprStmt:
		r.expr(n.X)
	}
}

func (r *resolver) expr(e Expr) {
	switch n := e.(type) {
	case *Ident:
		if !r.bind(n) {
			r.errorf(CodeUndeclared, n.Position(), "undeclared variable %q", n.Name)
		}
	case *UnaryExpr:
		r.expr(n.X)
	case *BinaryExpr:
		// An operator chain nests to the left as deep as it is long:
		// its left spine is walked in a loop, not a recursion, and its
		// right operands resolved from the innermost out.
		from := len(r.spine)
		for {
			r.spine = append(r.spine, n)
			l, ok := n.L.(*BinaryExpr)
			if !ok {
				break
			}
			n = l
		}
		r.expr(n.L)
		for i := len(r.spine) - 1; i >= from; i-- {
			r.expr(r.spine[i].R)
		}
		clear(r.spine[from:])
		r.spine = r.spine[:from]
	case *IndexExpr:
		r.expr(n.X)
		r.expr(n.I)
	case *ArrayLit:
		for _, el := range n.Elems {
			r.expr(el)
		}
	case *MapLit:
		for i := range n.Keys {
			r.expr(n.Keys[i])
			r.expr(n.Vals[i])
		}
	case *CallExpr:
		for _, a := range n.Args {
			r.expr(a)
		}
		r.call(n)
	}
}

// call binds n to a program function, which comes first, or else to a
// host function.
func (r *resolver) call(n *CallExpr) {
	n.Func, n.Host = -1, -1
	if fi, ok := r.funcs[n.Name]; ok {
		n.Func = fi
		if want := len(r.prog.Funcs[fi].Params); len(n.Args) != want {
			r.errorf(CodeArity, n.Position(), "%q expects %d arguments, got %d", n.Name, want, len(n.Args))
		}
		return
	}
	hi, arity, ok := r.bindings.Lookup(n.Name)
	if !ok {
		// The paper's core safety rule: unknown bindings are rejected
		// at translation time, never deferred to runtime.
		r.errorf(CodeUnboundCall, n.Position(), "call to %q: not a program function and not in the allowed host function set", n.Name)
		return
	}
	n.Host = hi
	if arity >= 0 && len(n.Args) != arity {
		r.errorf(CodeArity, n.Position(), "host function %q expects %d arguments, got %d", n.Name, arity, len(n.Args))
	}
}
