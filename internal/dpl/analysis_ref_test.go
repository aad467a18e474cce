package dpl_test

import (
	"fmt"
	"math"

	"mbd/internal/dpl"
)

// The static analyzer as it stood when it walked the AST: the source
// half of analysis.Analyze, renamed refAnalyze, and the files it ran,
// cfg.go, const.go, dataflow.go and cost.go of internal/dpl/analysis,
// verbatim. constFold and the AST walk (inspect, walkCalls) it read
// are in effects_ref_test.go, where they were copied before. It is the
// oracle for TestAnalyzerMatchesReference and
// FuzzAnalyzerMatchesReference: every diagnostic it raises, the
// bytecode analyzer must raise too.

// FuncInfo is one function's analysis summary.
type FuncInfo struct {
	Name    string
	Pos     dpl.Pos
	Effects Effects
	Cost    CostEstimate
}

// Report is the result of analyzing one program.
type Report struct {
	// Diags holds every analyzer finding, sorted by position.
	Diags []dpl.Diagnostic
	// Funcs summarizes each function in declaration order.
	Funcs []*FuncInfo
	// Effects is the program-level union: everything any function (or
	// a global initializer) can reach. Any function may serve as the
	// instantiation entry point, so admission checks this union.
	Effects Effects
	// Cost is the program-level worst case: the costliest function,
	// Unbounded if any function is unbounded.
	Cost CostEstimate
}

// refAnalyze runs the source-level analyses over prog against the host's
// allowed-function table: everything that needs source positions. It
// reads the names dpl.Check bound, resolving prog itself only if no
// Check (or Compile) has already done so against bindings, and reports
// the Translator's rule violations among its own findings.
// An unchecked program is analyzed all the same: unbound names are
// skipped. The report's effects stay empty until RecoverEffects.
//
// Pipeline: name resolution → per-function CFG → unreachable code →
// definite assignment → liveness/dead stores → never-written globals →
// cost analysis.
func refAnalyze(prog *dpl.Program, bindings *dpl.Bindings) *Report {
	rep := &Report{Diags: append([]dpl.Diagnostic(nil), dpl.Check(prog, bindings)...)}

	for _, f := range prog.Funcs {
		g := buildCFG(f)
		fr := frame{globals: prog.Globals, fn: f}
		unreachableDiags(g, &rep.Diags)
		definiteAssignment(g, fr, &rep.Diags)
		liveness(g, fr, &rep.Diags)
	}
	globalDiags(prog, &rep.Diags)

	ca := &costAnalyzer{
		prog:     prog,
		memo:     make(map[*dpl.FuncDecl]CostEstimate),
		visiting: make(map[*dpl.FuncDecl]bool),
		diags:    &rep.Diags,
	}
	for _, f := range prog.Funcs {
		cost := ca.funcCost(f)
		rep.Funcs = append(rep.Funcs, &FuncInfo{Name: f.Name, Pos: f.Position(), Cost: cost})
		if cost.Unbounded && !rep.Cost.Unbounded {
			rep.Cost.Unbounded = true
			rep.Cost.Pos = cost.Pos
		}
		if cost.Steps > rep.Cost.Steps {
			rep.Cost.Steps = cost.Steps
			if !rep.Cost.Unbounded || cost.Unbounded {
				rep.Cost.Pos = cost.Pos
			}
		}
	}
	dpl.SortDiags(rep.Diags)
	return rep
}

// ---- cfg.go

// Control-flow graph construction. Each function gets a graph of basic
// blocks whose Nodes are either statements (dpl.Stmt) or branch
// condition expressions (dpl.Expr) in evaluation order; conditions are
// kept as graph nodes so the dataflow passes see their variable reads
// on the right edge of the graph.

// Block is one basic block.
type Block struct {
	ID    int
	Nodes []dpl.Node // dpl.Stmt for statements, dpl.Expr for conditions
	Succs []*Block
	Preds []*Block

	succ, pred [2]*Block // where Succs and Preds start out: few outgrow it
}

// Graph is one function's control-flow graph. Entry is the first
// block executed; Exit is the single synthetic return target.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block

	reach map[*Block]bool // Reachable's answer, once asked for
}

// Reachable returns the set of blocks reachable from Entry: computed
// once, the graph being complete by then, and not for callers to modify.
func (g *Graph) Reachable() map[*Block]bool {
	if g.reach != nil {
		return g.reach
	}
	seen := make(map[*Block]bool, len(g.Blocks))
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	g.reach = seen
	return seen
}

type loopCtx struct {
	cont *Block // continue target
	brk  *Block // break target
}

type cfgBuilder struct {
	g     *Graph
	cur   *Block
	loops []loopCtx
}

// buildCFG constructs the control-flow graph of fn.
func buildCFG(fn *dpl.FuncDecl) *Graph {
	g := &Graph{}
	b := &cfgBuilder{g: g}
	g.Entry = b.newBlock()
	g.Exit = &Block{ID: -1} // appended to Blocks last, below
	b.cur = g.Entry
	b.block(fn.Body)
	b.edge(b.cur, g.Exit) // implicit "return nil" at end of body
	g.Exit.ID = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	return g
}

func (b *cfgBuilder) newBlock() *Block {
	nb := &Block{ID: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, nb)
	return nb
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from.Succs == nil {
		from.Succs = from.succ[:0]
	}
	if to.Preds == nil {
		to.Preds = to.pred[:0]
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *cfgBuilder) block(blk *dpl.Block) {
	for _, st := range blk.Stmts {
		b.stmt(st)
	}
}

func (b *cfgBuilder) stmt(st dpl.Stmt) {
	switch n := st.(type) {
	case *dpl.Block:
		b.block(n)
	case *dpl.IfStmt:
		b.cur.Nodes = append(b.cur.Nodes, n.Cond)
		condBlk := b.cur
		join := &Block{} // registered lazily so block ids stay compact
		tv, known := constBool(n.Cond)

		then := b.newBlock()
		if !known || tv {
			b.edge(condBlk, then)
		}
		b.cur = then
		b.block(n.Then)
		thenEnd := b.cur

		var elseEnd *Block
		if n.Else != nil {
			els := b.newBlock()
			if !known || !tv {
				b.edge(condBlk, els)
			}
			b.cur = els
			b.stmt(n.Else)
			elseEnd = b.cur
		}

		join.ID = len(b.g.Blocks)
		b.g.Blocks = append(b.g.Blocks, join)
		b.edge(thenEnd, join)
		if n.Else != nil {
			b.edge(elseEnd, join)
		} else if !known || !tv {
			b.edge(condBlk, join)
		}
		b.cur = join
	case *dpl.WhileStmt:
		head := b.newBlock()
		b.edge(b.cur, head)
		head.Nodes = append(head.Nodes, n.Cond)
		body := b.newBlock()
		exit := &Block{}
		tv, known := constBool(n.Cond)
		if !known || tv {
			b.edge(head, body)
		}
		b.loops = append(b.loops, loopCtx{cont: head, brk: exit})
		b.cur = body
		b.block(n.Body)
		b.edge(b.cur, head)
		b.loops = b.loops[:len(b.loops)-1]
		exit.ID = len(b.g.Blocks)
		b.g.Blocks = append(b.g.Blocks, exit)
		if !known || !tv {
			b.edge(head, exit)
		}
		b.cur = exit
	case *dpl.ForStmt:
		if n.Init != nil {
			b.stmt(n.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		tv, known := true, n.Cond == nil
		if n.Cond != nil {
			head.Nodes = append(head.Nodes, n.Cond)
			tv, known = constBool(n.Cond)
		}
		infinite := known && tv
		body := b.newBlock()
		if !known || tv {
			b.edge(head, body)
		}
		post := &Block{}
		exit := &Block{}
		b.loops = append(b.loops, loopCtx{cont: post, brk: exit})
		b.cur = body
		b.block(n.Body)
		bodyEnd := b.cur
		b.loops = b.loops[:len(b.loops)-1]
		post.ID = len(b.g.Blocks)
		b.g.Blocks = append(b.g.Blocks, post)
		b.edge(bodyEnd, post)
		if n.Post != nil {
			saved := b.cur
			b.cur = post
			b.stmt(n.Post)
			post = b.cur // Post is simple; stays one block
			b.cur = saved
		}
		b.edge(post, head)
		exit.ID = len(b.g.Blocks)
		b.g.Blocks = append(b.g.Blocks, exit)
		if !infinite {
			b.edge(head, exit)
		}
		b.cur = exit
	case *dpl.BreakStmt:
		b.cur.Nodes = append(b.cur.Nodes, n)
		if len(b.loops) > 0 {
			b.edge(b.cur, b.loops[len(b.loops)-1].brk)
		}
		b.cur = b.newBlock() // dangling: anything after break is unreachable
	case *dpl.ContinueStmt:
		b.cur.Nodes = append(b.cur.Nodes, n)
		if len(b.loops) > 0 {
			b.edge(b.cur, b.loops[len(b.loops)-1].cont)
		}
		b.cur = b.newBlock()
	case *dpl.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, n)
		b.edge(b.cur, b.g.Exit)
		b.cur = b.newBlock()
	default:
		// VarDecl, AssignStmt, ExprStmt: straight-line.
		b.cur.Nodes = append(b.cur.Nodes, st)
	}
}

// unreachableDiags reports DPL002 once per unreachable region: an
// unreachable block with nodes whose predecessors are all reachable (or
// absent) heads a region; its downstream unreachable blocks are
// suppressed to avoid cascades.
func unreachableDiags(g *Graph, diags *[]dpl.Diagnostic) {
	reach := g.Reachable()
	unreached := make(map[*Block]bool)
	for _, blk := range g.Blocks {
		if !reach[blk] && blk != g.Exit {
			unreached[blk] = true
		}
	}
	for _, blk := range g.Blocks {
		if !unreached[blk] || len(blk.Nodes) == 0 {
			continue
		}
		regionHead := true
		for _, p := range blk.Preds {
			if unreached[p] {
				regionHead = false
				break
			}
		}
		if !regionHead {
			continue
		}
		*diags = append(*diags, dpl.Diagnostic{
			Code: dpl.CodeUnreachable,
			Sev:  dpl.SevWarning,
			Pos:  blk.Nodes[0].Position(),
			Msg:  "unreachable code",
		})
	}
}

// ---- const.go

// Constant folding over expressions, by the language's own operator
// rules (dpl.Binary, dpl.Negate, dpl.Truthy): a constant condition here
// is exactly one the VM would see. Anything that would fail at run time
// is not constant.

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

// ---- dataflow.go

// Dataflow passes over the CFG: definite assignment (forward, must) and
// liveness (backward, may). Both run to fixpoint on block boundary
// states, then a final per-block walk produces diagnostics.

// varID numbers the variables one function can name: the program's
// globals by declaration index, then the function's frame slots
// (parameters first), as dpl.Check bound them. varNone marks a name
// bound to no variable (the program failed Check, or the name is a
// function).
type varID int

const varNone varID = -1

// frame is the variable numbering of one function; with fn nil, of the
// globals alone.
type frame struct {
	globals []*dpl.VarDecl
	fn      *dpl.FuncDecl
}

func (fr frame) size() int { return len(fr.globals) + len(fr.fn.Locals) }

// ident returns the variable n is bound to.
func (fr frame) ident(n *dpl.Ident) varID {
	switch {
	case n.Slot < 0:
		return varNone
	case n.Global:
		return varID(n.Slot)
	}
	return varID(len(fr.globals) + n.Slot)
}

// local returns the variable a local declaration introduces.
func (fr frame) local(d *dpl.VarDecl) varID { return varID(len(fr.globals) + d.Slot) }

func (fr frame) global(id varID) bool { return int(id) < len(fr.globals) }

// assignedAtEntry reports whether id is a global or a parameter.
func (fr frame) assignedAtEntry(id varID) bool {
	return int(id) < len(fr.globals)+len(fr.fn.Params)
}

func (fr frame) name(id varID) string {
	if fr.global(id) {
		return fr.globals[id].Name
	}
	return fr.fn.Locals[int(id)-len(fr.globals)]
}

// eachUse walks e and calls fn for every bound variable read. Assign
// targets are not "uses" — callers handle them explicitly.
func (fr frame) eachUse(e dpl.Expr, fn func(id varID, pos dpl.Pos)) {
	inspect(e, func(n dpl.Node) bool {
		if x, ok := n.(*dpl.Ident); ok {
			if id := fr.ident(x); id != varNone {
				fn(id, x.Position())
			}
		}
		return true
	})
}

// bitset is a fixed-universe variable set.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i varID) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }
func (b bitset) set(i varID)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i varID)    { b[i/64] &^= 1 << (uint(i) % 64) }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func (b bitset) fill() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

// intersect b &= o, reporting whether b changed.
func (b bitset) intersect(o bitset) bool {
	changed := false
	for i := range b {
		n := b[i] & o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// union b |= o, reporting whether b changed.
func (b bitset) union(o bitset) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// definiteAssignment runs the must-assigned analysis on g and appends
// DPL001 diagnostics for reads of possibly-uninitialized locals.
// Globals and parameters count as assigned at entry (globals are
// initialized by the program prologue, to nil at worst; the
// never-written-global case is a separate program-level check).
func definiteAssignment(g *Graph, fr frame, diags *[]dpl.Diagnostic) {
	nvars := fr.size()
	entry := newBitset(nvars)
	for i := 0; i < len(fr.globals)+len(fr.fn.Params); i++ {
		entry.set(varID(i))
	}

	in := make(map[*Block]bitset, len(g.Blocks))
	for _, b := range g.Blocks {
		s := newBitset(nvars)
		if b == g.Entry {
			copy(s, entry)
		} else {
			s.fill() // ⊤ for the must-intersection
		}
		in[b] = s
	}

	work := []*Block{g.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := in[b].clone()
		daTransfer(b, out, fr, nil)
		for _, s := range b.Succs {
			if in[s].intersect(out) {
				work = append(work, s)
			}
		}
	}

	reach := g.Reachable()
	reported := make(map[dpl.Pos]bool)
	for _, b := range g.Blocks {
		if !reach[b] {
			continue // unreachable code is reported by DPL002
		}
		state := in[b].clone()
		daTransfer(b, state, fr, func(id varID, pos dpl.Pos) {
			if reported[pos] {
				return
			}
			reported[pos] = true
			*diags = append(*diags, dpl.Diagnostic{
				Code: dpl.CodeUseBeforeInit,
				Sev:  dpl.SevWarning,
				Pos:  pos,
				Msg:  fmt.Sprintf("variable %q may be used before it is assigned (reads as nil)", fr.name(id)),
			})
		})
	}
}

// daTransfer applies block b to the assigned-set state. When report is
// non-nil, each read of an unassigned local is reported.
func daTransfer(b *Block, state bitset, fr frame, report func(varID, dpl.Pos)) {
	check := func(e dpl.Expr) {
		if report == nil {
			return
		}
		fr.eachUse(e, func(id varID, pos dpl.Pos) {
			if !fr.assignedAtEntry(id) && !state.has(id) {
				report(id, pos)
			}
		})
	}
	for _, node := range b.Nodes {
		switch n := node.(type) {
		case *dpl.VarDecl:
			if n.Init != nil {
				check(n.Init)
				state.set(fr.local(n))
			}
		case *dpl.AssignStmt:
			check(n.Value)
			switch t := n.Target.(type) {
			case *dpl.Ident:
				if n.Op != dpl.TokAssign {
					check(t) // compound assignment reads the old value
				}
				if id := fr.ident(t); id != varNone {
					state.set(id)
				}
			case *dpl.IndexExpr:
				check(t) // x[i] = v reads both x and i
			}
		case *dpl.ExprStmt:
			check(n.X)
		case *dpl.ReturnStmt:
			if n.Value != nil {
				check(n.Value)
			}
		case dpl.Expr: // branch condition
			check(n)
		}
	}
}

// liveness runs the backward may-live analysis and appends DPL003
// dead-store diagnostics for assignments to locals that no later read
// observes. Globals are exempt: they outlive every activation.
func liveness(g *Graph, fr frame, diags *[]dpl.Diagnostic) {
	nvars := fr.size()
	out := make(map[*Block]bitset, len(g.Blocks))
	for _, b := range g.Blocks {
		out[b] = newBitset(nvars)
	}

	changed := true
	for changed {
		changed = false
		for i := len(g.Blocks) - 1; i >= 0; i-- {
			b := g.Blocks[i]
			state := out[b].clone()
			liveTransfer(b, state, fr, nil)
			for _, p := range b.Preds {
				if out[p].union(state) {
					changed = true
				}
			}
		}
	}

	reach := g.Reachable()
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		state := out[b].clone()
		liveTransfer(b, state, fr, func(id varID, pos dpl.Pos, decl bool) {
			verb := "assigned to"
			if decl {
				verb = "stored in"
			}
			*diags = append(*diags, dpl.Diagnostic{
				Code: dpl.CodeDeadStore,
				Sev:  dpl.SevWarning,
				Pos:  pos,
				Msg:  fmt.Sprintf("value %s %q is never used", verb, fr.name(id)),
			})
		})
	}
}

// liveTransfer applies block b backward to the live-set state. When
// report is non-nil it is called for each dead store (decl=true for a
// VarDecl initializer).
func liveTransfer(b *Block, state bitset, fr frame, report func(varID, dpl.Pos, bool)) {
	gen := func(e dpl.Expr) {
		fr.eachUse(e, func(id varID, _ dpl.Pos) { state.set(id) })
	}
	for i := len(b.Nodes) - 1; i >= 0; i-- {
		switch n := b.Nodes[i].(type) {
		case *dpl.VarDecl:
			if id := fr.local(n); n.Init != nil {
				if report != nil && !state.has(id) && !isTrivial(n.Init) {
					report(id, n.Position(), true)
				}
				state.clear(id)
			}
			if n.Init != nil {
				gen(n.Init)
			}
		case *dpl.AssignStmt:
			switch t := n.Target.(type) {
			case *dpl.Ident:
				if id := fr.ident(t); id != varNone {
					if report != nil && !fr.global(id) && !state.has(id) {
						report(id, n.Position(), false)
					}
					state.clear(id)
					if n.Op != dpl.TokAssign {
						state.set(id) // compound assignment also reads
					}
				}
			case *dpl.IndexExpr:
				gen(t)
			}
			gen(n.Value)
		case *dpl.ExprStmt:
			gen(n.X)
		case *dpl.ReturnStmt:
			if n.Value != nil {
				gen(n.Value)
			}
		case dpl.Expr: // branch condition
			gen(n)
		}
	}
}

// isTrivial reports whether e is a bare literal initializer.
// `var x = 0;` followed by an unconditional re-assignment is a common,
// harmless idiom — only initializers that do work are worth a DPL003.
func isTrivial(e dpl.Expr) bool {
	switch e.(type) {
	case *dpl.IntLit, *dpl.FloatLit, *dpl.StringLit, *dpl.BoolLit, *dpl.NilLit:
		return true
	}
	return false
}

// globalDiags reports DPL004 for globals that are read somewhere but
// have no initializer and no assignment anywhere in the program, at the
// first read: in the global initializers, else in source order through
// the functions.
func globalDiags(prog *dpl.Program, diags *[]dpl.Diagnostic) {
	fr := frame{globals: prog.Globals}
	written := make([]bool, len(prog.Globals))
	firstRead := make([]dpl.Pos, len(prog.Globals)) // Line 0: not read
	noteReads := func(e dpl.Expr) {
		fr.eachUse(e, func(id varID, pos dpl.Pos) {
			if fr.global(id) && firstRead[id].Line == 0 {
				firstRead[id] = pos
			}
		})
	}
	for i, g := range prog.Globals {
		if g.Init != nil {
			written[i] = true
			noteReads(g.Init)
		}
	}
	for _, f := range prog.Funcs {
		inspect(f.Body, func(n dpl.Node) bool {
			switch n := n.(type) {
			case *dpl.AssignStmt:
				if t, ok := n.Target.(*dpl.Ident); ok && t.Global && t.Slot >= 0 {
					written[t.Slot] = true
					if n.Op != dpl.TokAssign {
						noteReads(t)
					}
					noteReads(n.Value)
					return false
				}
			case dpl.Expr:
				noteReads(n)
				return false
			}
			return true
		})
	}
	for i, g := range prog.Globals {
		if written[i] || firstRead[i].Line == 0 {
			continue
		}
		*diags = append(*diags, dpl.Diagnostic{
			Code: dpl.CodeGlobalNeverWritten,
			Sev:  dpl.SevWarning,
			Pos:  firstRead[i],
			Msg:  fmt.Sprintf("global %q is read but never written anywhere (always nil)", g.Name),
		})
	}
}

// ---- cost.go

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
