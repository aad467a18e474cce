package analysis

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"mbd/internal/dpl"
)

// Cost analysis over the optimized object code, the code the VM runs
// and ships, so a node prices what it admits and every receiver prices
// it again the same way (verify). The unit is the VM step: one per
// executed instruction, a call costing its own step and its callee's,
// a host call one. A function's cost is its longest path through its
// graph, each loop counted as a node.
//
// A loop is counted when its header only compares a frame local, the
// induction variable, with a constant and branches out of the loop on
// false; the local's only write in the loop is a constant step on every
// path back to the header; and the walker knows the value it enters the
// loop with. Calls cannot write a caller's locals, so nothing else moves
// it. A counted loop costs trips times its longest pass plus the
// header's final test. Any other loop, a trip count past maxTrips, a
// count past 2^64-1 steps and recursion make the cost Unbounded,
// legitimate for resident agents, which is why unboundedness is a
// summary property, not a diagnostic. A loop no path leaves that never
// yields (no sleep or recv reachable from it) is flagged DPL005, and
// recursion DPL009. Every step is linear in the code, however many
// loops it holds and however deep they nest: a receiver prices hostile
// artifacts too.

// maxTrips bounds a counted loop's trips: past it the loop is
// unbounded, so a crafted `for (i = 0; i < 1e18; …)` prices as one.
const maxTrips = 1 << 32

// CostEstimate is a function's (or program's) static cost summary.
type CostEstimate struct {
	// Steps bounds the VM steps of one invocation. When Unbounded, it
	// covers one pass of each loop that is not counted.
	Steps uint64
	// Unbounded reports that some loop's trip count (or recursion)
	// could not be bounded statically.
	Unbounded bool
	// Pos anchors the estimate (the function position, or for a
	// program summary the costliest function).
	Pos dpl.Pos
}

// String renders "123 steps" or "unbounded (>=123 steps per pass)".
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
	if hi, lo := bits.Mul64(a, b); hi == 0 {
		return lo
	}
	return math.MaxUint64
}

// coster prices one program's functions, each once, from the notes a
// walk of every block left in s (see scratch.recover).
type coster struct {
	c      *dpl.Compiled
	s      *Scratch
	funcs  []CostEstimate
	state  []uint8 // per function: 0 not begun, 1 begun, 2 begun and reported recursive, 3 done
	yields []bool  // per function: a call of it can reach sleep or recv; nil until asked
	// info, when set, receives each function's cost, anchored at the
	// function, and with diags set the coster reports DPL005 and DPL009.
	info  []*FuncInfo
	diags *[]dpl.Diagnostic
	// irreducible: the block being priced has loops that overlap
	// without nesting, or control enters one past its header.
	irreducible bool
	// written: s.writes holds the writes to locals of the block being
	// priced, by local and then position (see count).
	written bool
}

// program prices every function, in declaration order, and the
// program: the global initializers and then the costliest function.
func (k *coster) program() CostEstimate {
	k.s.costs, k.s.priced = resize(k.s.costs, len(k.c.Funcs)), resize(k.s.priced, len(k.c.Funcs))
	k.funcs, k.state = k.s.costs, k.s.priced
	var prog CostEstimate
	for f := range k.c.Funcs {
		cost := k.fn(f)
		if f < len(k.info) {
			k.info[f].Cost = cost
		}
		if cost.Unbounded && !prog.Unbounded {
			prog.Unbounded, prog.Pos = true, cost.Pos
		}
		if cost.Steps > prog.Steps {
			prog.Steps = cost.Steps
			if !prog.Unbounded || cost.Unbounded {
				prog.Pos = cost.Pos
			}
		}
	}
	init := k.code(-1)
	prog.Steps = addCost(prog.Steps, init.Steps)
	prog.Unbounded = prog.Unbounded || init.Unbounded || prog.Steps == math.MaxUint64
	return prog
}

// fn prices function f: its callees first, in code order, then its
// own code. A call of a function whose pricing has begun is recursion.
func (k *coster) fn(f int) CostEstimate {
	switch k.state[f] {
	case 1:
		k.state[f] = 2
		if k.diags != nil && f < len(k.info) {
			*k.diags = append(*k.diags, dpl.Diagnostic{Code: dpl.CodeRecursion, Sev: dpl.SevWarning, Pos: k.info[f].Pos,
				Msg: fmt.Sprintf("function %q is recursive; its cost cannot be bounded", k.c.Funcs[f].Name)})
		}
		fallthrough
	case 2:
		return CostEstimate{Unbounded: true}
	case 3:
		return k.funcs[f]
	}
	k.state[f] = 1
	for _, in := range k.c.Funcs[f].Code {
		if in.Op == dpl.OpCall && in.A >= 0 && int(in.A) < len(k.c.Funcs) {
			k.fn(int(in.A))
		}
	}
	cost := k.code(f)
	if f < len(k.info) {
		cost.Pos = k.info[f].Pos
	}
	k.funcs[f], k.state[f] = cost, 3
	return cost
}

// code prices Block(fn), its callees priced, by one sweep of its graph
// from the last block: path[b] is the most steps from block b to the
// end of the innermost loop holding it (a jump back to the loop's
// header or out of the loop) or of the function, node[h] the most from
// a loop's header h through the whole loop and on to the end of the
// loop holding it, and out[h] the most on from an edge that leaves the
// loop headed by h and no loop holding it. Edges run forward but for
// those back to headers, so each value the sweep reads is already
// there.
func (k *coster) code(fn int) CostEstimate {
	s, g := k.s, k.s.graph(k.c, fn)
	n := len(g.Blocks)
	if n == 0 {
		return CostEstimate{}
	}
	k.irreducible, k.written = false, false
	k.loops(g)
	if k.diags != nil {
		k.calm(g)
	}
	cost := CostEstimate{Unbounded: k.irreducible}
	s.memo = resize(s.memo, 3*n)
	path, node, out := s.memo[:n], s.memo[n:2*n], s.memo[2*n:]
	// after is the most steps once control goes to t from inside loop r.
	after := func(t, r int32) uint64 {
		switch {
		case t < 0 || t == r || !k.in(t, r):
			return 0
		case s.nest[t].loop == t:
			return node[t]
		}
		return path[t]
	}
	for b := int32(n - 1); b >= 0; b-- {
		blk, nb := &g.Blocks[b], &s.nest[b]
		if !blk.Reach {
			continue
		}
		path[b] = addCost(k.weight(g.Code[blk.Start:blk.End], &cost.Unbounded), max(after(blk.Succ[0], nb.loop), after(blk.Succ[1], nb.loop)))
		for e, h := range nb.left {
			if h >= 0 {
				out[h] = max(out[h], after(blk.Succ[e], s.nest[h].up))
			}
		}
		if nb.loop != b {
			continue
		}
		trips, counted := k.count(g, fn, b)
		node[b] = path[b]
		if counted {
			node[b] = addCost(mulCost(trips, path[b]), k.weight(g.Code[blk.Start:blk.End], &cost.Unbounded))
		}
		cost.Unbounded = cost.Unbounded || !counted
		node[b] = addCost(node[b], out[b])
		if k.diags != nil && nb.calm > nb.depth {
			k.busy(g, fn, b)
		}
	}
	cost.Steps = after(0, -1)
	cost.Unbounded = cost.Unbounded || cost.Steps == math.MaxUint64 // saturated
	return cost
}

// weight is the steps of one run of code: one per instruction, and
// each callee's.
func (k *coster) weight(code []dpl.Instr, unbounded *bool) uint64 {
	steps := uint64(len(code))
	for _, in := range code {
		if in.Op == dpl.OpCall && in.A >= 0 && int(in.A) < len(k.funcs) {
			callee := k.fn(int(in.A))
			steps = addCost(steps, callee.Steps)
			*unbounded = *unbounded || callee.Unbounded
		}
	}
	return steps
}

// nesting is a block's place among the loops of its graph, as loops
// finds it.
type nesting struct {
	// last is the last block of the loop the block heads, -1 for none.
	last int32
	// loop is the header of the innermost loop holding the block, its
	// own when it heads one, -1 for none; up, for a header, that of the
	// loop holding its loop, and depth how many loops hold the header.
	loop, up, depth int32
	// left is, per successor, the outermost loop the edge to it
	// leaves, -1 for none.
	left [2]int32
	// from is the first block with a forward edge to the block.
	from int32
	// entered marks a header that control enters other than by falling
	// from the block before or jumping back from the loop's last block.
	entered bool
	// calm is, for a header, the least depth of a loop that some block
	// of its loop leaves, returns from or yields in (see calm).
	calm int32
}

// loops finds the loops of g's reachable blocks, in s.nest. In compiled
// code a loop is the run of blocks from its header, where its backward
// jumps land, to the last block that jumps back there, and loops nest as
// their runs do. Every cycle lies in such a run, or in runs that overlap
// without nesting: code with those, or with an edge into a run past its
// header, is irreducible.
func (k *coster) loops(g *dpl.Graph) {
	s, n := k.s, len(g.Blocks)
	if cap(s.nest) < n {
		s.nest = make([]nesting, n)
	}
	s.nest = s.nest[:n]
	nest, loops := s.nest, false
	for i := range nest {
		nest[i] = nesting{last: -1, loop: -1, up: -1, left: [2]int32{-1, -1}, from: math.MaxInt32}
	}
	for u, b := range g.Blocks {
		for e, t := range b.Succ {
			switch {
			case !b.Reach || t < 0:
			case t <= int32(u): // a second way back enters the loop too
				nest[t].entered = nest[t].entered || nest[t].last >= 0
				nest[t].last, loops = int32(u), true
			default:
				nest[t].entered = nest[t].entered || e == 1
				nest[t].from = min(nest[t].from, int32(u))
			}
		}
	}
	if !loops {
		return
	}
	open := s.stack[:0] // the loops holding b, outermost first
	for b := range int32(n) {
		for len(open) > 0 && nest[open[len(open)-1]].last < b {
			open = open[:len(open)-1]
		}
		nb := &nest[b]
		if len(open) > 0 {
			nb.loop = open[len(open)-1]
		}
		if nb.last >= 0 {
			k.irreducible = k.irreducible || nb.loop >= 0 && nest[nb.loop].last < nb.last
			nb.up, nb.loop = nb.loop, b
			open = append(open, b)
			nb.depth = int32(len(open))
		} else if nb.loop >= 0 && nb.from < nb.loop {
			k.irreducible = true
		}
		// The loops an edge leaves are the innermost of those holding
		// b: the first in open that does not hold its target and every
		// one after it.
		for e, t := range g.Blocks[b].Succ {
			if g.Blocks[b].Reach && t >= 0 && len(open) > 0 && !k.in(t, open[len(open)-1]) {
				nb.left[e] = open[sort.Search(len(open), func(i int) bool { return !k.in(t, open[i]) })]
			}
		}
	}
	s.stack = open
}

// in reports whether block b lies in the loop headed by h; every block
// lies in h < 0, the function.
func (k *coster) in(b, h int32) bool {
	return h < 0 || b >= h && b <= k.s.nest[h].last
}

// count returns the trips of the loop headed by h when it is counted:
// its header is a loop test that leaves the loop on false; control
// enters it only by falling from the block before, where the walker saw
// the variable; and the variable's one write in the loop is a constant
// step in the loop's one latch, its last block, the one way back to
// the header, which every pass runs.
func (k *coster) count(g *dpl.Graph, fn int, h int32) (uint64, bool) {
	hb, nh := &g.Blocks[h], &k.s.nest[h]
	local, limit, op, n, ok := loopTest(k.c, g.Code[hb.Start:hb.End])
	hn, noted := k.s.note(fn, int(hb.Start))
	if !ok || n != int(hb.End-hb.Start) || k.irreducible || !noted || hn.decided || nh.entered ||
		!k.in(hb.Succ[0], h) || k.in(hb.Succ[1], h) || hb.Succ[1] < 0 && !hb.Exit {
		return 0, false
	}
	if !k.written {
		k.written = true
		k.s.writes = k.s.writes[:0]
		for ip, in := range g.Code {
			l := in.A
			if in.Op == dpl.OpConstStoreL {
				l = in.B
			} else if in.Op != dpl.OpStoreL && in.Op != dpl.OpIncL && in.Op != dpl.OpDecL {
				continue
			}
			if l >= 0 {
				k.s.writes = append(k.s.writes, uint64(l)<<32|uint64(ip))
			}
		}
		slices.Sort(k.s.writes)
	}
	// The local's writes inside the loop: one, in the latch.
	i, _ := slices.BinarySearch(k.s.writes, uint64(local)<<32|uint64(hb.Start))
	j, _ := slices.BinarySearch(k.s.writes, uint64(local)<<32|uint64(g.Blocks[nh.last].End))
	if j-i != 1 || g.At[uint32(k.s.writes[i])] != nh.last {
		return 0, false
	}
	in := g.Code[uint32(k.s.writes[i])]
	d, isInt := int64(0), false
	if (in.Op == dpl.OpIncL || in.Op == dpl.OpDecL) && in.B >= 0 && int(in.B) < len(k.c.Consts) {
		d, isInt = k.c.Consts[in.B].AsInt()
	}
	step := d
	if in.Op == dpl.OpDecL {
		step = -d
	}
	start, ok1 := hn.init.AsInt()
	end, ok2 := limit.AsInt()
	if !isInt || in.Op == dpl.OpDecL && d == math.MinInt64 || !ok1 || !ok2 {
		return 0, false
	}
	return trips(start, end, op, step)
}

// trips counts the passes of a loop that starts its variable at s and
// steps it by d while it compares op to k, when the count is at most
// maxTrips and no step wraps. Ints map to uint64 keeping their order
// (x^1<<63); a falling loop runs in the mirrored order (^x).
func trips(s, k int64, op dpl.TokenKind, d int64) (uint64, bool) {
	us, uk, step, rising := uint64(s)^1<<63, uint64(k)^1<<63, uint64(d), d > 0
	if op == dpl.TokGt || op == dpl.TokGe {
		us, uk, step, rising = ^us, ^uk, -step, d < 0
	}
	strict := op == dpl.TokLt || op == dpl.TokGt
	if us > uk || strict && us == uk {
		return 0, true
	}
	if !rising {
		return 0, false
	}
	span := uk - us
	t := span/step + 1
	if strict {
		t = span / step
		if span%step != 0 {
			t++
		}
	}
	hi, lo := bits.Mul64(t, step)
	if _, carry := bits.Add64(us, lo, 0); t > maxTrips || hi != 0 || carry != 0 {
		return 0, false
	}
	return t, true
}

// loopTest matches the test a loop header of optimized code starts
// with, when it compares a local with a constant and branches on false:
// LLCB and JF, or CONST, LOADL and BJF. It returns the local, the
// constant, the operator with the local on its left, and the
// instructions the test takes.
func loopTest(c *dpl.Compiled, code []dpl.Instr) (local int, limit dpl.Value, op dpl.TokenKind, n int, ok bool) {
	var k int32 = -1 // the constant's index
	if len(code) >= 2 && code[0].Op == dpl.OpLoadLConstBin && code[1].Op == dpl.OpJumpFalse {
		k, op = dpl.UnpackIdxOp(code[0].B)
		local, n = int(code[0].A), 2
	} else if len(code) >= 3 && code[0].Op == dpl.OpConst && code[1].Op == dpl.OpLoadL && code[2].Op == dpl.OpBinJumpFalse {
		local, k, op, n = int(code[1].A), code[0].A, mirror(dpl.TokenKind(code[2].B)), 3
	}
	if k < 0 || int(k) >= len(c.Consts) || mirror(op) == 0 {
		return 0, dpl.Value{}, 0, 0, false
	}
	return local, c.Consts[k], op, n, true
}

// mirror turns a comparison around, k op x being x mirror(op) k; it is
// 0 for any other operator.
func mirror(op dpl.TokenKind) dpl.TokenKind {
	switch op {
	case dpl.TokLt:
		return dpl.TokGt
	case dpl.TokLe:
		return dpl.TokGe
	case dpl.TokGt:
		return dpl.TokLt
	case dpl.TokGe:
		return dpl.TokLe
	}
	return 0
}

// yields reports whether host parks the instance: a loop that calls
// sleep or recv is a well-behaved resident agent, not a busy loop.
func yields(host string) bool { return host == "sleep" || host == "recv" }

// calm sets, per loop header of g, the least depth of a loop that a
// block of its loop leaves, returns from or yields in: a loop whose
// calm is past its own depth is one no path leaves and that calls
// nothing that yields.
func (k *coster) calm(g *dpl.Graph) {
	nest := k.s.nest
	for i := range nest {
		nest[i].calm = math.MaxInt32
	}
	for x, b := range g.Blocks {
		l := nest[x].loop
		if !b.Reach || l < 0 {
			continue
		}
		calm := int32(math.MaxInt32)
		if b.Exit || k.yield(g.Code[b.Start:b.End]) {
			calm = 0
		}
		for _, h := range nest[x].left {
			if h >= 0 {
				calm = min(calm, nest[h].depth)
			}
		}
		nest[l].calm = min(nest[l].calm, calm)
	}
	for h := len(nest) - 1; h >= 0; h-- { // inner loops before the loops holding them
		if u := nest[h].up; nest[h].last >= 0 && u >= 0 {
			nest[u].calm = min(nest[u].calm, nest[h].calm)
		}
	}
}

// busy reports DPL005 at the loop headed by h in Block(fn).
func (k *coster) busy(g *dpl.Graph, fn int, h int32) {
	if m, ok := markAt(k.c.Marks(fn), int(g.Blocks[h].Start), dpl.MarkLoop); ok {
		*k.diags = append(*k.diags, dpl.Diagnostic{Code: dpl.CodeBusyLoop, Sev: dpl.SevWarning, Pos: m.Pos,
			Msg: "infinite loop never yields (no sleep/recv on any path) and has no break; it will burn its entire step quota"})
	}
}

// yield reports whether code calls sleep or recv, directly or through
// program functions.
func (k *coster) yield(code []dpl.Instr) bool {
	for _, in := range code {
		if in.Op == dpl.OpCallHost && in.A >= 0 && int(in.A) < len(k.c.HostNames) && yields(k.c.HostNames[in.A]) ||
			in.Op == dpl.OpCall && in.A >= 0 && int(in.A) < len(k.c.Funcs) && k.yielders()[in.A] {
			return true
		}
	}
	return false
}

// yielders returns, per function, whether a call of it can reach sleep
// or recv: it calls one, or a function that can. It is worked out on
// the first call, from the functions that call one back along the
// calls.
func (k *coster) yielders() []bool {
	if k.yields != nil {
		return k.yields
	}
	funcs := k.c.Funcs
	k.yields = make([]bool, len(funcs)) // all false, so yield sees host calls only
	calls := func(do func(caller, callee int)) {
		for i, f := range funcs {
			for _, in := range f.Code {
				if in.Op == dpl.OpCall && in.A >= 0 && int(in.A) < len(funcs) {
					do(i, int(in.A))
				}
			}
		}
	}
	at := make([]int32, len(funcs)+2) // callers[at[f]:at[f+1]] call f
	calls(func(_, callee int) { at[callee+2]++ })
	for i := 2; i < len(at); i++ {
		at[i] += at[i-1]
	}
	callers := make([]int32, at[len(at)-1])
	calls(func(caller, callee int) { callers[at[callee+1]], at[callee+1] = int32(caller), at[callee+1]+1 })
	var work []int32
	for i, f := range funcs {
		if k.yield(f.Code) {
			work = append(work, int32(i))
		}
	}
	for _, f := range work {
		k.yields[f] = true
	}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range callers[at[f]:at[f+1]] {
			if !k.yields[c] {
				k.yields[c] = true
				work = append(work, c)
			}
		}
	}
	return k.yields
}
