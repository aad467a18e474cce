package analysis

import "mbd/internal/dpl"

// inspect calls fn for n and, while fn returns true for a node, for
// every statement and expression beneath it: depth first, in source
// order (a for loop's Post before its Body, as written; a call before
// its arguments). A callee name is not a node; only a call's arguments
// are.
func inspect(n dpl.Node, fn func(dpl.Node) bool) {
	if !fn(n) {
		return
	}
	switch n := n.(type) {
	case *dpl.Block:
		for _, s := range n.Stmts {
			inspect(s, fn)
		}
	case *dpl.VarDecl:
		if n.Init != nil {
			inspect(n.Init, fn)
		}
	case *dpl.AssignStmt:
		inspect(n.Target, fn)
		inspect(n.Value, fn)
	case *dpl.IfStmt:
		inspect(n.Cond, fn)
		inspect(n.Then, fn)
		if n.Else != nil {
			inspect(n.Else, fn)
		}
	case *dpl.WhileStmt:
		inspect(n.Cond, fn)
		inspect(n.Body, fn)
	case *dpl.ForStmt:
		if n.Init != nil {
			inspect(n.Init, fn)
		}
		if n.Cond != nil {
			inspect(n.Cond, fn)
		}
		if n.Post != nil {
			inspect(n.Post, fn)
		}
		inspect(n.Body, fn)
	case *dpl.ReturnStmt:
		if n.Value != nil {
			inspect(n.Value, fn)
		}
	case *dpl.ExprStmt:
		inspect(n.X, fn)
	case *dpl.UnaryExpr:
		inspect(n.X, fn)
	case *dpl.BinaryExpr:
		inspect(n.L, fn)
		inspect(n.R, fn)
	case *dpl.IndexExpr:
		inspect(n.X, fn)
		inspect(n.I, fn)
	case *dpl.ArrayLit:
		for _, el := range n.Elems {
			inspect(el, fn)
		}
	case *dpl.MapLit:
		for i := range n.Keys {
			inspect(n.Keys[i], fn)
			inspect(n.Vals[i], fn)
		}
	case *dpl.CallExpr:
		for _, a := range n.Args {
			inspect(a, fn)
		}
	}
}

// walkCalls visits every CallExpr beneath n.
func walkCalls(n dpl.Node, fn func(*dpl.CallExpr)) {
	inspect(n, func(n dpl.Node) bool {
		if c, ok := n.(*dpl.CallExpr); ok {
			fn(c)
		}
		return true
	})
}
