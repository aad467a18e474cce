package analysis

import (
	"fmt"
	"math"

	"mbd/internal/dpl"
)

// Cost analysis. Each function gets an instruction-cost estimate in
// abstract "steps" roughly proportional to (and designed to dominate)
// the VM's instruction count. Constant-trip loops multiply their body
// cost by the trip count; any loop whose trips cannot be bounded marks
// the function Unbounded — legitimate for resident agents, which is why
// unboundedness is a summary property, not a diagnostic. A provably
// infinite loop that never yields (no sleep/recv reachable from its
// body and no break) is flagged DPL005, and recursion is flagged DPL009
// since the estimate cannot converge.

// Per-construct step weights. Deliberately generous relative to the
// VM's per-instruction accounting so that a bounded estimate is an
// upper bound in practice.
const (
	costNode = 1 // per expression node / simple statement
	costCall = 4 // call overhead on top of argument evaluation
	costHost = 8 // host binding invocation (crosses the VM boundary)
	costLoop = 2 // per-iteration loop bookkeeping
)

// maxTrips caps constant-trip multiplication so a crafted
// `for (i=0; i<1e18; …)` cannot overflow the estimate.
const maxTrips = 1 << 32

// CostEstimate is a function's (or program's) static cost summary.
type CostEstimate struct {
	// Steps is the estimated instruction cost of one invocation. When
	// Unbounded, it covers only the bounded portion (one loop trip).
	Steps uint64
	// Unbounded reports that some loop's trip count (or recursion)
	// could not be bounded statically.
	Unbounded bool
	// Pos anchors the estimate (the function position, or for a
	// program summary the costliest function).
	Pos dpl.Pos
}

// String renders "123 steps" or "unbounded (≥123 steps/pass)".
func (c CostEstimate) String() string {
	if c.Unbounded {
		return fmt.Sprintf("unbounded (>=%d steps per pass)", c.Steps)
	}
	return fmt.Sprintf("%d steps", c.Steps)
}

// add saturates.
func addCost(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}

func mulCost(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxUint64/b {
		return math.MaxUint64
	}
	return a * b
}

type costAnalyzer struct {
	prog     *dpl.Program
	yielding []bool // per function: a call can reach sleep or recv (see yields)
	memo     map[*dpl.FuncDecl]CostEstimate
	visiting map[*dpl.FuncDecl]bool
	diags    *[]dpl.Diagnostic
}

func (a *costAnalyzer) funcCost(f *dpl.FuncDecl) CostEstimate {
	if c, ok := a.memo[f]; ok {
		return c
	}
	if a.visiting[f] {
		// Recursion: cost cannot converge. Reported once per cycle
		// entry point.
		c := CostEstimate{Unbounded: true, Pos: f.Position()}
		a.memo[f] = c
		*a.diags = append(*a.diags, dpl.Diagnostic{
			Code: dpl.CodeRecursion,
			Sev:  dpl.SevWarning,
			Pos:  f.Position(),
			Msg:  fmt.Sprintf("function %q is recursive; its cost cannot be bounded", f.Name),
		})
		return c
	}
	a.visiting[f] = true
	c := a.blockCost(f.Body)
	c.Pos = f.Position()
	delete(a.visiting, f)
	a.memo[f] = c
	return c
}

func (a *costAnalyzer) blockCost(b *dpl.Block) CostEstimate {
	var c CostEstimate
	for _, st := range b.Stmts {
		sc := a.stmtCost(st)
		c.Steps = addCost(c.Steps, sc.Steps)
		c.Unbounded = c.Unbounded || sc.Unbounded
	}
	return c
}

func (a *costAnalyzer) stmtCost(st dpl.Stmt) CostEstimate {
	switch n := st.(type) {
	case *dpl.VarDecl:
		c := CostEstimate{Steps: costNode}
		if n.Init != nil {
			c = combine(c, a.exprCost(n.Init))
		}
		return c
	case *dpl.Block:
		return a.blockCost(n)
	case *dpl.AssignStmt:
		c := CostEstimate{Steps: costNode}
		c = combine(c, a.exprCost(n.Target))
		return combine(c, a.exprCost(n.Value))
	case *dpl.IfStmt:
		c := combine(CostEstimate{Steps: costNode}, a.exprCost(n.Cond))
		tc := a.blockCost(n.Then)
		var ec CostEstimate
		if n.Else != nil {
			ec = a.stmtCost(n.Else)
		}
		// Worst-case branch.
		branch := CostEstimate{Steps: tc.Steps, Unbounded: tc.Unbounded || ec.Unbounded}
		if ec.Steps > branch.Steps {
			branch.Steps = ec.Steps
		}
		return combine(c, branch)
	case *dpl.WhileStmt:
		cond := a.exprCost(n.Cond)
		body := a.blockCost(n.Body)
		if tv, known := constBool(n.Cond); known && !tv {
			return cond // body never runs
		}
		a.checkBusyLoop(n.Position(), n.Cond, n.Body)
		per := addCost(addCost(cond.Steps, body.Steps), costLoop)
		return CostEstimate{Steps: per, Unbounded: true}
	case *dpl.ForStmt:
		var c CostEstimate
		if n.Init != nil {
			c = combine(c, a.stmtCost(n.Init))
		}
		var cond CostEstimate
		if n.Cond != nil {
			cond = a.exprCost(n.Cond)
		}
		body := a.blockCost(n.Body)
		var post CostEstimate
		if n.Post != nil {
			post = a.stmtCost(n.Post)
		}
		per := addCost(addCost(addCost(cond.Steps, body.Steps), post.Steps), costLoop)
		unboundedIter := cond.Unbounded || body.Unbounded || post.Unbounded
		if trips, ok := a.constTrips(n); ok {
			c.Steps = addCost(c.Steps, mulCost(per, trips))
			c.Unbounded = c.Unbounded || unboundedIter
			return c
		}
		a.checkBusyLoop(n.Position(), n.Cond, n.Body)
		c.Steps = addCost(c.Steps, per)
		c.Unbounded = true
		return c
	case *dpl.BreakStmt, *dpl.ContinueStmt:
		return CostEstimate{Steps: costNode}
	case *dpl.ReturnStmt:
		c := CostEstimate{Steps: costNode}
		if n.Value != nil {
			c = combine(c, a.exprCost(n.Value))
		}
		return c
	case *dpl.ExprStmt:
		return a.exprCost(n.X)
	}
	return CostEstimate{Steps: costNode}
}

func combine(a, b CostEstimate) CostEstimate {
	return CostEstimate{Steps: addCost(a.Steps, b.Steps), Unbounded: a.Unbounded || b.Unbounded}
}

func (a *costAnalyzer) exprCost(e dpl.Expr) CostEstimate {
	switch n := e.(type) {
	case *dpl.UnaryExpr:
		return combine(CostEstimate{Steps: costNode}, a.exprCost(n.X))
	case *dpl.BinaryExpr:
		return combine(combine(CostEstimate{Steps: costNode}, a.exprCost(n.L)), a.exprCost(n.R))
	case *dpl.IndexExpr:
		return combine(combine(CostEstimate{Steps: costNode}, a.exprCost(n.X)), a.exprCost(n.I))
	case *dpl.ArrayLit:
		c := CostEstimate{Steps: costNode}
		for _, el := range n.Elems {
			c = combine(c, a.exprCost(el))
		}
		return c
	case *dpl.MapLit:
		c := CostEstimate{Steps: costNode}
		for i := range n.Keys {
			c = combine(combine(c, a.exprCost(n.Keys[i])), a.exprCost(n.Vals[i]))
		}
		return c
	case *dpl.CallExpr:
		c := CostEstimate{Steps: costCall}
		for _, arg := range n.Args {
			c = combine(c, a.exprCost(arg))
		}
		if n.Func >= 0 {
			return combine(c, a.funcCost(a.prog.Funcs[n.Func]))
		}
		return combine(c, CostEstimate{Steps: costHost})
	}
	return CostEstimate{Steps: costNode}
}

// constTrips detects the canonical counted loop
//
//	for (var i = C0; i <op> C1; i += C2) { …no writes to i… }
//
// (also `i = C0` init, `-=` with reversed comparison, and reversed
// comparison operand order) and returns its trip count.
func (a *costAnalyzer) constTrips(n *dpl.ForStmt) (uint64, bool) {
	if n.Init == nil || n.Cond == nil || n.Post == nil {
		return 0, false
	}
	// The loop lies within one function, whose frame numbers its
	// variables; which function does not matter to comparing them.
	fr := frame{globals: a.prog.Globals}
	var id varID = varNone
	var start int64
	switch init := n.Init.(type) {
	case *dpl.VarDecl:
		if init.Init == nil {
			return 0, false
		}
		v, ok := constInt(init.Init)
		if !ok {
			return 0, false
		}
		start = v
		id = fr.local(init)
	case *dpl.AssignStmt:
		t, ok := init.Target.(*dpl.Ident)
		if !ok || init.Op != dpl.TokAssign {
			return 0, false
		}
		v, ok := constInt(init.Value)
		if !ok {
			return 0, false
		}
		start = v
		id = fr.ident(t)
	default:
		return 0, false
	}
	if id == varNone {
		return 0, false
	}

	cond, ok := n.Cond.(*dpl.BinaryExpr)
	if !ok {
		return 0, false
	}
	op := cond.Op
	var limit int64
	if li, lok := cond.L.(*dpl.Ident); lok && fr.ident(li) == id {
		v, ok := constInt(cond.R)
		if !ok {
			return 0, false
		}
		limit = v
	} else if ri, rok := cond.R.(*dpl.Ident); rok && fr.ident(ri) == id {
		v, ok := constInt(cond.L)
		if !ok {
			return 0, false
		}
		limit = v
		// Mirror the comparison: C <op> i  ≡  i <mirror(op)> C.
		switch op {
		case dpl.TokLt:
			op = dpl.TokGt
		case dpl.TokLe:
			op = dpl.TokGe
		case dpl.TokGt:
			op = dpl.TokLt
		case dpl.TokGe:
			op = dpl.TokLe
		default:
			return 0, false
		}
	} else {
		return 0, false
	}

	post, ok := n.Post.(*dpl.AssignStmt)
	if !ok {
		return 0, false
	}
	pt, ok := post.Target.(*dpl.Ident)
	if !ok || fr.ident(pt) != id {
		return 0, false
	}
	step, ok := constInt(post.Value)
	if !ok || step == 0 {
		return 0, false
	}
	switch post.Op {
	case dpl.TokPlusAssign:
	case dpl.TokMinusAssign:
		step = -step
	default:
		return 0, false
	}

	// The body must not write the induction variable.
	if writesVar(n.Body, id, fr) {
		return 0, false
	}

	var span int64
	switch op {
	case dpl.TokLt:
		if step <= 0 {
			return 0, false
		}
		span = limit - start
	case dpl.TokLe:
		if step <= 0 {
			return 0, false
		}
		span = limit - start + 1
	case dpl.TokGt:
		if step >= 0 {
			return 0, false
		}
		span = start - limit
		step = -step
	case dpl.TokGe:
		if step >= 0 {
			return 0, false
		}
		span = start - limit + 1
		step = -step
	default:
		return 0, false
	}
	if span <= 0 {
		return 0, true
	}
	trips := (span + step - 1) / step
	if trips > maxTrips {
		trips = maxTrips
	}
	return uint64(trips), true
}

// writesVar reports whether the block assigns the given variable.
func writesVar(b *dpl.Block, id varID, fr frame) bool {
	found := false
	inspect(b, func(n dpl.Node) bool {
		if a, ok := n.(*dpl.AssignStmt); ok {
			if t, ok := a.Target.(*dpl.Ident); ok && fr.ident(t) == id {
				found = true
			}
		}
		return !found
	})
	return found
}

// yieldBindings are host functions that park the instance; a loop that
// reaches one is a well-behaved resident agent, not a busy loop.
var yieldBindings = map[string]bool{"sleep": true, "recv": true}

// checkBusyLoop flags DPL005 for a provably infinite loop (constant-
// true or missing condition) that contains no break and cannot reach a
// yielding host call from its body.
func (a *costAnalyzer) checkBusyLoop(pos dpl.Pos, cond dpl.Expr, body *dpl.Block) {
	infinite := cond == nil
	if cond != nil {
		tv, known := constBool(cond)
		infinite = known && tv
	}
	if !infinite || hasDirectBreak(body) {
		return
	}
	if a.yields(body) {
		return
	}
	*a.diags = append(*a.diags, dpl.Diagnostic{
		Code: dpl.CodeBusyLoop,
		Sev:  dpl.SevWarning,
		Pos:  pos,
		Msg:  "infinite loop never yields (no sleep/recv on any path) and has no break; it will burn its entire step quota",
	})
}

// yields reports whether n calls sleep or recv, directly or through
// user functions. Which functions reach one is worked out once, on the
// first call of a user function.
func (a *costAnalyzer) yields(n dpl.Node) (found bool) {
	walkCalls(n, func(c *dpl.CallExpr) {
		if c.Func >= 0 && a.yielding == nil {
			a.yielding = make([]bool, len(a.prog.Funcs))
			for grew := true; grew; {
				grew = false
				for i, f := range a.prog.Funcs {
					if !a.yielding[i] && a.yields(f.Body) {
						a.yielding[i], grew = true, true
					}
				}
			}
		}
		found = found || c.Func < 0 && yieldBindings[c.Name] || c.Func >= 0 && a.yielding[c.Func]
	})
	return found
}

// hasDirectBreak reports whether the loop body contains a break bound
// to this loop (i.e. not inside a nested loop).
func hasDirectBreak(b *dpl.Block) bool {
	found := false
	inspect(b, func(n dpl.Node) bool {
		switch n.(type) {
		case *dpl.BreakStmt:
			found = true
		case *dpl.WhileStmt, *dpl.ForStmt:
			return false // their bodies rebind break
		}
		return !found
	})
	return found
}
