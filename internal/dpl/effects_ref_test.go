package dpl_test

import (
	"fmt"
	"sort"
	"strings"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
)

// Source-level effect inference as it stood before effects were
// recovered from object code: inferEffects, constOIDPrefix and
// constStringHead verbatim, with the helpers they read (the effect
// accumulator, constant folding and the AST walk) copied beside them.
// It is the oracle for TestEffectsMatchReference and
// FuzzEffectsNeverWiden: the recovered summary may only be narrower.

// The analysis names the copied code uses.
type (
	Effect  = analysis.Effect
	Effects = analysis.Effects
)

const Wildcard = analysis.Wildcard

var OIDCovers = analysis.OIDCovers

// refEffects runs the reference inference over a checked program and
// folds it the way Analyze did: the program summary (the global
// initializers, then every function) and each function's, closed over
// its calls, in declaration order.
func refEffects(prog *dpl.Program) (program Effects, funcs []Effects) {
	var diags []dpl.Diagnostic
	sets, initSet := inferEffects(prog, &diags)
	all := newEffectSet()
	all.mergeFrom(initSet)
	for _, f := range prog.Funcs {
		all.mergeFrom(sets[f])
		funcs = append(funcs, sets[f].finalize())
	}
	return all.finalize(), funcs
}

// mibPrimitives maps the MIB host primitives to the index of their OID
// argument and whether they write.
var mibPrimitives = map[string]struct {
	argIdx int
	write  bool
}{
	"mibGet":   {0, false},
	"mibNext":  {0, false},
	"mibWalk":  {0, false},
	"mibSet":   {0, true},
	"snmpGet":  {1, false},
	"snmpNext": {1, false},
}

// effectSet accumulates effects during inference.
type effectSet struct {
	hosts  map[string]dpl.Pos
	reads  map[string]dpl.Pos
	writes map[string]dpl.Pos
}

func newEffectSet() *effectSet {
	return &effectSet{
		hosts:  make(map[string]dpl.Pos),
		reads:  make(map[string]dpl.Pos),
		writes: make(map[string]dpl.Pos),
	}
}

func addOnce(m map[string]dpl.Pos, k string, pos dpl.Pos) bool {
	if _, ok := m[k]; ok {
		return false
	}
	m[k] = pos
	return true
}

// mergeFrom folds o into s, reporting whether s grew.
func (s *effectSet) mergeFrom(o *effectSet) bool {
	grew := false
	for k, p := range o.hosts {
		grew = addOnce(s.hosts, k, p) || grew
	}
	for k, p := range o.reads {
		grew = addOnce(s.reads, k, p) || grew
	}
	for k, p := range o.writes {
		grew = addOnce(s.writes, k, p) || grew
	}
	return grew
}

// finalize converts the accumulator to a sorted, prefix-minimal
// Effects value.
func (s *effectSet) finalize() Effects {
	return Effects{
		Hosts:  sortedEffects(s.hosts, false),
		Reads:  sortedEffects(s.reads, true),
		Writes: sortedEffects(s.writes, true),
	}
}

func sortedEffects(m map[string]dpl.Pos, minimize bool) []Effect {
	out := make([]Effect, 0, len(m))
	for k, p := range m {
		out = append(out, Effect{Name: k, Pos: p})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if !minimize {
		return out
	}
	// Drop prefixes covered by another (shorter) prefix or a wildcard.
	kept := out[:0]
	for i, e := range out {
		covered := false
		for j, o := range out {
			if i == j {
				continue
			}
			if OIDCovers(o.Name, e.Name) && (o.Name != e.Name || j < i) {
				covered = true
				break
			}
		}
		if !covered {
			kept = append(kept, e)
		}
	}
	return kept
}

// inferEffects computes per-function effect sets, transitively closed
// over user calls, plus DPL006 diagnostics for dynamic OID arguments.
func inferEffects(prog *dpl.Program, diags *[]dpl.Diagnostic) (sets map[*dpl.FuncDecl]*effectSet, initSet *effectSet) {
	direct := make(map[*dpl.FuncDecl]*effectSet, len(prog.Funcs))
	calls := make(map[*dpl.FuncDecl]map[*dpl.FuncDecl]bool, len(prog.Funcs))

	collect := func(f *dpl.FuncDecl, body dpl.Node, set *effectSet) {
		walkCalls(body, func(c *dpl.CallExpr) {
			if c.Func >= 0 {
				// User functions resolve before host bindings (and
				// shadowing a host name is a Check error anyway).
				callee := prog.Funcs[c.Func]
				if f != nil {
					if calls[f] == nil {
						calls[f] = make(map[*dpl.FuncDecl]bool)
					}
					calls[f][callee] = true
				}
				return
			}
			if c.Host < 0 {
				return // unknown name; Check rejects it
			}
			addOnce(set.hosts, c.Name, c.Position())
			prim, ok := mibPrimitives[c.Name]
			if !ok || prim.argIdx >= len(c.Args) {
				return
			}
			arg := c.Args[prim.argIdx]
			prefix, exact, okPrefix := constOIDPrefix(arg)
			if !okPrefix {
				prefix = Wildcard
				*diags = append(*diags, dpl.Diagnostic{
					Code: dpl.CodeDynamicOID,
					Sev:  dpl.SevWarning,
					Pos:  arg.Position(),
					Msg:  fmt.Sprintf("OID argument of %s is not a constant; inferred effect widens to the whole MIB", c.Name),
				})
			}
			_ = exact
			if prim.write {
				addOnce(set.writes, prefix, arg.Position())
			} else {
				addOnce(set.reads, prefix, arg.Position())
			}
		})
	}

	for _, f := range prog.Funcs {
		set := newEffectSet()
		collect(f, f.Body, set)
		direct[f] = set
	}

	// Global initializers run before any entry point; their effects
	// belong to the program but to no function.
	initSet = newEffectSet()
	for _, g := range prog.Globals {
		if g.Init != nil {
			collect(nil, g.Init, initSet)
		}
	}

	// Transitive closure: iterate until no summary grows.
	for changed := true; changed; {
		changed = false
		for _, f := range prog.Funcs {
			for callee := range calls[f] {
				if direct[f].mergeFrom(direct[callee]) {
					changed = true
				}
			}
		}
	}
	return direct, initSet
}

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
