package analysis

import "mbd/internal/dpl"

// Variable resolution. The dataflow passes need flow-insensitive
// binding of every identifier occurrence to the declaration it names,
// because DPL allows shadowing in nested scopes and a purely name-based
// analysis would conflate distinct variables. The resolver mirrors the
// scope rules of dpl.Check: lexical block scopes chained over a global
// scope, parameters in a function's outermost scope.

// varID indexes resolution.vars. varNone marks an unresolved
// identifier (the program failed Check, or the name is a function).
type varID int

const varNone varID = -1

type varInfo struct {
	name   string
	global bool
	param  bool
	pos    dpl.Pos
}

// resolution maps identifier occurrences and declarations to variable
// ids for one program.
type resolution struct {
	vars []varInfo
	// use binds every *dpl.Ident expression occurrence (reads and
	// assignment targets alike) to its variable.
	use map[*dpl.Ident]varID
	// decl binds each VarDecl to the variable it introduces.
	decl map[*dpl.VarDecl]varID
	// globals lists the program's global ids in declaration order.
	globals []varID
	// scope lists the variables visible at the point being resolved,
	// innermost last: a block truncates it to its length on entry.
	scope []varID
}

func (r *resolution) lookup(name string) varID {
	for i := len(r.scope) - 1; i >= 0; i-- {
		if id := r.scope[i]; r.vars[id].name == name {
			return id
		}
	}
	return varNone
}

func resolve(prog *dpl.Program) *resolution {
	// Few functions declare more than a variable per top-level
	// statement, so vars and the scope stack seldom outgrow this.
	n := len(prog.Globals)
	for _, f := range prog.Funcs {
		n += len(f.Params) + len(f.Body.Stmts)
	}
	r := &resolution{
		vars:    make([]varInfo, 0, n),
		use:     make(map[*dpl.Ident]varID),
		decl:    make(map[*dpl.VarDecl]varID, n),
		globals: make([]varID, 0, len(prog.Globals)),
		scope:   make([]varID, 0, n),
	}
	for _, g := range prog.Globals {
		// Initializers may reference only earlier globals (enforced by
		// Check); resolving before declaring matches that rule.
		if g.Init != nil {
			r.resolveExpr(g.Init)
		}
		id := r.newVar(varInfo{name: g.Name, global: true, pos: g.Position()})
		r.decl[g] = id
		r.globals = append(r.globals, id)
	}
	for _, f := range prog.Funcs {
		for _, p := range f.Params {
			r.newVar(varInfo{name: p, param: true, pos: f.Position()})
		}
		r.resolveBlock(f.Body)
		r.scope = r.scope[:len(r.globals)]
	}
	return r
}

// newVar adds a variable and brings it into scope.
func (r *resolution) newVar(info varInfo) varID {
	id := varID(len(r.vars))
	r.vars = append(r.vars, info)
	r.scope = append(r.scope, id)
	return id
}

// resolveBlock resolves b in a scope of its own.
func (r *resolution) resolveBlock(b *dpl.Block) {
	outer := len(r.scope)
	for _, st := range b.Stmts {
		r.resolveStmt(st)
	}
	r.scope = r.scope[:outer]
}

func (r *resolution) resolveStmt(st dpl.Stmt) {
	switch n := st.(type) {
	case *dpl.VarDecl:
		if n.Init != nil {
			r.resolveExpr(n.Init)
		}
		r.decl[n] = r.newVar(varInfo{name: n.Name, pos: n.Position()})
	case *dpl.Block:
		r.resolveBlock(n)
	case *dpl.AssignStmt:
		r.resolveExpr(n.Target)
		r.resolveExpr(n.Value)
	case *dpl.IfStmt:
		r.resolveExpr(n.Cond)
		r.resolveBlock(n.Then)
		if n.Else != nil {
			r.resolveStmt(n.Else)
		}
	case *dpl.WhileStmt:
		r.resolveExpr(n.Cond)
		r.resolveBlock(n.Body)
	case *dpl.ForStmt:
		outer := len(r.scope)
		if n.Init != nil {
			r.resolveStmt(n.Init)
		}
		if n.Cond != nil {
			r.resolveExpr(n.Cond)
		}
		if n.Post != nil {
			r.resolveStmt(n.Post)
		}
		r.resolveBlock(n.Body)
		r.scope = r.scope[:outer]
	case *dpl.ReturnStmt:
		if n.Value != nil {
			r.resolveExpr(n.Value)
		}
	case *dpl.ExprStmt:
		r.resolveExpr(n.X)
	}
}

func (r *resolution) resolveExpr(e dpl.Expr) {
	eachIdent(e, func(n *dpl.Ident) { r.use[n] = r.lookup(n.Name) })
}

// eachUse walks e and calls fn for every resolved variable read. Assign
// targets are not "uses" — callers handle them explicitly.
func (r *resolution) eachUse(e dpl.Expr, fn func(id varID, pos dpl.Pos)) {
	eachIdent(e, func(n *dpl.Ident) {
		if id, ok := r.use[n]; ok && id != varNone {
			fn(id, n.Position())
		}
	})
}

// eachIdent calls fn for every identifier expression in e, in source
// order. A callee name is not one; only a call's arguments are walked.
func eachIdent(e dpl.Expr, fn func(*dpl.Ident)) {
	switch n := e.(type) {
	case *dpl.Ident:
		fn(n)
	case *dpl.UnaryExpr:
		eachIdent(n.X, fn)
	case *dpl.BinaryExpr:
		eachIdent(n.L, fn)
		eachIdent(n.R, fn)
	case *dpl.IndexExpr:
		eachIdent(n.X, fn)
		eachIdent(n.I, fn)
	case *dpl.ArrayLit:
		for _, el := range n.Elems {
			eachIdent(el, fn)
		}
	case *dpl.MapLit:
		for i := range n.Keys {
			eachIdent(n.Keys[i], fn)
			eachIdent(n.Vals[i], fn)
		}
	case *dpl.CallExpr:
		for _, a := range n.Args {
			eachIdent(a, fn)
		}
	}
}
