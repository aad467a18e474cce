package analysis

import (
	"strings"

	"mbd/internal/dpl"
)

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

// constOIDPrefix extracts the statically known OID prefix of e, for the
// effect inference of MIB primitives:
//
//   - a fully constant string folds exactly ("1.3.6.1.2.1.1.3.0");
//   - "const" + dynamic keeps the constant head, truncated to the last
//     complete dotted component so a partial trailing number cannot
//     masquerade as a component boundary;
//   - anything else is unknown (the caller widens to the whole MIB).
//
// The returned prefix has no trailing dot. ok=false means no constant
// head could be recovered.
func constOIDPrefix(e dpl.Expr) (prefix string, exact, ok bool) {
	head, exact := constStringHead(e)
	if exact {
		return strings.TrimSuffix(head, "."), true, true
	}
	// Keep only whole components of a partial head.
	i := strings.LastIndex(head, ".")
	if i <= 0 {
		return "", false, false
	}
	return head[:i], false, true
}

// constStringHead returns the longest constant leading string of e
// under string concatenation; exact reports whether the whole
// expression folded.
func constStringHead(e dpl.Expr) (head string, exact bool) {
	if v, ok := constFold(e); ok {
		s, ok := v.AsString()
		return s, ok
	}
	if b, ok := e.(*dpl.BinaryExpr); ok && b.Op == dpl.TokPlus {
		lh, lexact := constStringHead(b.L)
		if !lexact {
			return lh, false
		}
		rh, rexact := constStringHead(b.R)
		return lh + rh, rexact
	}
	return "", false
}
