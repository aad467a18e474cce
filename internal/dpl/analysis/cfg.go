package analysis

import "mbd/internal/dpl"

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
