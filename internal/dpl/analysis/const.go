package analysis

import "mbd/internal/dpl"

// Constant folding over expressions, by the language's own operator
// rules (dpl.Binary, dpl.Negate, dpl.Truthy): a constant condition here
// is exactly one the VM would see. Anything that would fail at run time
// is not constant.

// constFold evaluates e if it is a compile-time constant: literals, and
// unary, binary and short-circuit operators over folded operands.
func constFold(e dpl.Expr) (dpl.Value, bool) {
	switch n := e.(type) {
	case *dpl.IntLit:
		return dpl.Int(n.V), true
	case *dpl.FloatLit:
		return dpl.Float(n.V), true
	case *dpl.StringLit:
		return dpl.Str(n.V), true
	case *dpl.BoolLit:
		return dpl.Bool(n.V), true
	case *dpl.NilLit:
		return dpl.Value{}, true
	case *dpl.UnaryExpr:
		x, ok := constFold(n.X)
		if !ok {
			return x, false
		}
		if n.Op == dpl.TokBang {
			return dpl.Bool(!dpl.Truthy(x)), true
		}
		v, err := dpl.Negate(x)
		return v, err == nil
	case *dpl.BinaryExpr:
		l, ok := constFold(n.L)
		if !ok {
			return l, false
		}
		// Short-circuit operators yield an operand, and can fold from
		// the left side alone.
		switch n.Op {
		case dpl.TokAndAnd:
			if !dpl.Truthy(l) {
				return l, true
			}
			return constFold(n.R)
		case dpl.TokOrOr:
			if dpl.Truthy(l) {
				return l, true
			}
			return constFold(n.R)
		}
		r, ok := constFold(n.R)
		if !ok {
			return r, false
		}
		v, err := dpl.Binary(n.Op, l, r)
		return v, err == nil
	}
	return dpl.Value{}, false
}

// constBool folds e to a truth value if it is constant.
func constBool(e dpl.Expr) (val, known bool) {
	v, ok := constFold(e)
	if !ok {
		return false, false
	}
	return dpl.Truthy(v), true
}

// constIntArg folds e to an int64.
func constInt(e dpl.Expr) (int64, bool) {
	v, ok := constFold(e)
	if !ok {
		return 0, false
	}
	return v.AsInt()
}
