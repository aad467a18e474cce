package dpl

import (
	"slices"
	"strings"
)

// The abstract walker: the one value analysis over bytecode, shared by
// the optimizer's constant propagation, effect inference
// (analysis.Scratch.Recover) and the static analyzer's control-flow graphs,
// each a hook that reads the state before an instruction.
// One linear pass covers every instruction, dead ones included, with
// every index bounded. Exact values fold by the VM's own operator rules
// (Binary, Negate, Truthy), so a branch whose condition the walker
// knows goes one way only (see Branch). The join rule, at each entry,
// which is a jump target or code control cannot fall into (not every
// block start: not the code after a branch): locals are forgotten;
// where only forward edges arrive, each stack slot is the meet over the
// edges control can take into it, fall-through included; at a loop
// head every slot is unknown. Code no such edge reaches carries on from
// the code before it, which no run reaches either. Edges disagreeing
// on depth (the structural proof rules that out for reachable ones) and
// code only a jump reaches start from an empty stack, whose pops yield
// unknowns.

type absKind uint8

const (
	absUnknown absKind = iota
	absExact
	absHead
)

// Abs is what the walker knows about a value: exactly what it is, a
// head (a string that starts with the head), or nothing (the zero Abs).
type Abs struct {
	kind absKind
	v    Value // the value, or the head as a string
	// folded marks an exact value the walker computed rather than one
	// the code pushed.
	folded bool
}

// Prefix returns the dotted prefix a string value is known to start
// with, by the OID rules of effect inference: an exact string whole,
// less a trailing dot, or a head cut back to its last complete
// component.
func (a Abs) Prefix() (string, bool) {
	s, ok := a.v.AsString()
	if i := strings.LastIndex(s, "."); a.kind == absHead && i > 0 {
		return s[:i], true
	}
	return strings.TrimSuffix(s, "."), ok && a.kind == absExact
}

// Exact returns the value a is known to be, if the walker knows it.
func (a Abs) Exact() (Value, bool) { return a.v, a.kind == absExact }

// isString says a is known to be a string.
func (a Abs) isString() bool {
	return a.kind == absHead || a.kind == absExact && a.v.k == KindString
}

// asString is a where a string must stand: a itself when it is known
// to be one, else the empty head.
func (a Abs) asString() Abs {
	if a.isString() {
		return a
	}
	return Abs{kind: absHead, v: Str("")}
}

// binary is l op r: two exact values fold by Binary, and otherwise by
// the constant-head rules of effect inference a string or head left of
// + keeps its head. Every other result is unknown.
func binary(op TokenKind, l, r Abs) Abs {
	if l.kind == absExact && r.kind == absExact {
		if v, err := Binary(op, l.v, r.v); err == nil {
			return Abs{kind: absExact, v: v, folded: true}
		}
	}
	ls, ok := l.v.AsString()
	switch {
	case op != TokPlus || l.kind == absUnknown || !ok:
		return Abs{}
	case l.kind == absHead:
		return l
	case r.kind == absHead:
		return Abs{kind: absHead, v: Str(ls + r.v.str())}
	}
	return Abs{kind: absHead, v: Str(ls)}
}

// meet is what two incoming edges agree on.
func (a Abs) meet(b Abs) Abs {
	if a == b {
		return a
	}
	return Abs{}
}

// Walker runs the walk, reusing its buffers from block to block and
// call to call. Its graph's marks tell it where joins are.
type Walker struct {
	g             Graph
	stack, locals []Abs
	// ids[i] is the node that holds stack[i] and, through its below
	// links, every slot under it, or -1 once the slot has changed since
	// a forward edge last saved it; a slot that holds a node has only
	// nodes under it. A join keeps the stack its edges carry as the node
	// on top, so slots an edge shares with the stack it leaves are saved
	// once, whatever the depth.
	ids   []int32
	nodes []node
	// unknown[i+1] is the node of an unknown value over unknown[i], -1
	// for none: the stack a loop head leaves, which every loop head of
	// the walk shares.
	unknown []int32
	joins   []join  // per instruction: the forward edges landing on it
	entry   int     // stack depth where the current block began
	set     []int32 // the locals set since the block began
	path    []int32 // the nodes of a join's stack above what it shares with the current one
}

// node is one saved stack slot, over the node below it (-1 for none).
type node struct {
	a     Abs
	below int32
}

type join struct {
	top, n int32 // the forward edges control can take meet in an n-slot stack with nodes[top] on top; n < 0 if their depths disagree
	edges  bool  // one control can take lands here
}

// Walk interprets code, a block with nLocals frame slots. visit sees
// each instruction, and the stack and locals it starts from, before
// the transfer, which reads code[ip] afterwards so a rewrite counts.
// Returning false ends the walk.
func (w *Walker) Walk(c *Compiled, code []Instr, nLocals int, visit func(ip int, stack, locals []Abs) bool) {
	lead := w.g.mark(code)
	w.locals, w.joins = resize(w.locals, nLocals), resize(w.joins, len(code))
	w.stack, w.ids, w.nodes, w.set, w.unknown = w.stack[:0], w.ids[:0], w.nodes[:0], w.set[:0], append(w.unknown[:0], -1)
	falls, arrives := true, true // control can fall into ip, and does
	for ip := range code {
		live := arrives
		if ip == 0 || !falls || lead[ip]&(jumped|looped) != 0 {
			j, loop := &w.joins[ip], lead[ip]&looped != 0
			live = ip == 0 || loop || j.edges || arrives
			w.enter(j, loop, arrives || falls && !live)
		}
		if !visit(ip, w.stack, w.locals) {
			return
		}
		in := code[ip]
		var jumps bool
		falls, jumps = OpcodeFlow(in.Op)
		next, take := falls, jumps
		if falls && jumps {
			next, take = Branch(in, w.stack)
		}
		w.transfer(c, in)
		if t := int(in.A); jumps && t > ip && t < len(code) && live && take {
			w.edge(&w.joins[t])
		}
		arrives = live && next
	}
}

// Branch reports where a branch can go when run from stack: both ways,
// unless the walker knows its condition.
func Branch(in Instr, stack []Abs) (falls, jumps bool) {
	n := len(stack)
	if n == 0 {
		return true, true
	}
	cond := stack[n-1]
	if in.Op == OpBinJumpFalse {
		cond = Abs{}
		if n >= 2 {
			cond = binary(TokenKind(in.B), stack[n-2], stack[n-1])
		}
	}
	if cond.kind != absExact {
		return true, true
	}
	t := Truthy(cond.v)
	if in.Op == OpJTKeep {
		return !t, t
	}
	return t, !t
}

// enter starts a block by the join rule; loop says the block heads a
// loop, falls whether the state of the previous instruction carries
// into it.
func (w *Walker) enter(j *join, loop, falls bool) {
	switch {
	case !j.edges && falls: // the fall-through state carries on
	case !j.edges || j.n < 0 || falls && len(w.stack) != int(j.n):
		w.stack, w.ids = w.stack[:0], w.ids[:0]
	case falls:
		// Below the slots the two stacks share, they agree.
		for i, r := len(w.stack)-1, j.top; i >= 0 && w.ids[i] != r; i, r = i-1, w.nodes[r].below {
			if m := w.stack[i].meet(w.nodes[r].a); m != w.stack[i] {
				w.stack[i] = m
				w.dirty(i)
			}
		}
	default:
		k := w.divergence(j.top, int(j.n))
		w.stack, w.ids = w.stack[:k], w.ids[:k]
		for _, r := range slices.Backward(w.path) {
			w.stack, w.ids = append(w.stack, w.nodes[r].a), append(w.ids, r)
		}
	}
	if loop {
		// Each slot down to the first already on the unknown chain
		// moves onto it, so the next edge saves none of them.
		for len(w.unknown) <= len(w.stack) {
			w.unknown = append(w.unknown, int32(len(w.nodes)))
			w.nodes = appendDoubling(w.nodes, node{below: w.unknown[len(w.unknown)-2]})
		}
		for i := len(w.stack) - 1; i >= 0 && w.ids[i] != w.unknown[i+1]; i-- {
			w.stack[i], w.ids[i] = Abs{}, w.unknown[i+1]
		}
	}
	for _, i := range w.set {
		w.locals[i] = Abs{}
	}
	w.set, w.entry = w.set[:0], len(w.stack)
}

// edge meets the current stack into the join of a forward edge.
func (w *Walker) edge(j *join) {
	switch {
	case !j.edges:
		j.edges, j.top, j.n = true, w.save(), int32(len(w.stack))
	case int(j.n) != len(w.stack):
		j.n = -1
	default:
		// The join's stack changes from the lowest slot the meet changes
		// up: those slots are saved anew, over the ones below.
		w.divergence(j.top, int(j.n))
		low := -1
		for d, r := range w.path {
			if w.nodes[r].a.meet(w.stack[len(w.stack)-1-d]) != w.nodes[r].a {
				low = d
			}
		}
		if low < 0 {
			return
		}
		top := w.nodes[w.path[low]].below
		for d := low; d >= 0; d-- {
			a := w.nodes[w.path[d]].a.meet(w.stack[len(w.stack)-1-d])
			w.nodes = appendDoubling(w.nodes, node{a: a, below: top})
			top = int32(len(w.nodes) - 1)
		}
		j.top = top
	}
}

// divergence sets w.path to the nodes of the n-slot stack topped by
// nodes[top], top first, above the slots it shares with the current
// stack, and returns how many slots it shares.
func (w *Walker) divergence(top int32, n int) int {
	w.path = w.path[:0]
	for ; n > len(w.stack); n-- {
		w.path, top = append(w.path, top), w.nodes[top].below
	}
	for ; n > 0 && w.ids[n-1] != top; n-- {
		w.path, top = append(w.path, top), w.nodes[top].below
	}
	return n
}

// save makes nodes of the slots that have changed since the last save
// and returns the node on top, or -1 for an empty stack.
func (w *Walker) save() int32 {
	i := len(w.ids)
	for i > 0 && w.ids[i-1] < 0 {
		i--
	}
	for ; i < len(w.ids); i++ {
		below := int32(-1)
		if i > 0 {
			below = w.ids[i-1]
		}
		w.ids[i] = int32(len(w.nodes))
		w.nodes = appendDoubling(w.nodes, node{a: w.stack[i], below: below})
	}
	if len(w.ids) == 0 {
		return -1
	}
	return w.ids[len(w.ids)-1]
}

// dirty marks slot i and every slot above it changed.
func (w *Walker) dirty(i int) {
	for ; i < len(w.ids) && w.ids[i] >= 0; i++ {
		w.ids[i] = -1
	}
}

// transfer applies in to the state. Opcodes whose result the lattice
// describes have a rule; every other one pops what the opcode table
// says and pushes unknowns.
func (w *Walker) transfer(c *Compiled, in Instr) {
	switch in.Op {
	case OpConst, OpNil, OpTrue, OpFalse:
		w.push(pushed(c, in))
	case OpLoadL:
		w.push(w.local(in.A))
	case OpStoreL:
		w.setLocal(in.A, w.pop())
	case OpBin:
		r, l := w.pop(), w.pop()
		w.push(binary(TokenKind(in.A), l, r))
	case OpEq, OpNe:
		op := TokEq
		if in.Op == OpNe {
			op = TokNe
		}
		r, l := w.pop(), w.pop()
		w.push(binary(op, l, r))
	case OpNeg:
		x := w.pop()
		v, err := Negate(x.v)
		w.push(exact(v, x.kind == absExact && err == nil))
	case OpNot:
		x := w.pop()
		w.push(exact(Bool(!Truthy(x.v)), x.kind == absExact))
	case OpJFKeep, OpJTKeep:
		// The condition stays where it was.
	case OpLoadLConstBin:
		idx, op := UnpackIdxOp(in.B)
		w.push(binary(op, w.local(in.A), pushed(c, Instr{Op: OpConst, A: idx})))
	case OpLoadLLoadLBin:
		idx, op := UnpackIdxOp(in.B)
		w.push(binary(op, w.local(in.A), w.local(idx)))
	case OpConstStoreL:
		w.setLocal(in.B, pushed(c, Instr{Op: OpConst, A: in.A}))
	case OpIncL:
		w.setLocal(in.A, binary(TokPlus, w.local(in.A), pushed(c, Instr{Op: OpConst, A: in.B})))
	case OpDecL:
		w.setLocal(in.A, Abs{})
	case OpAddC:
		// ADDC keeps two strings where they are and leaves [nil, l+r]
		// for any other pair. A string beside a non-string stops the
		// run, so when either is known to be a string both are.
		r, l := w.pop(), w.pop()
		if l.isString() || r.isString() {
			w.push(l.asString())
			w.push(r.asString())
		} else {
			w.push(Abs{})
			w.push(Abs{})
		}
	case OpAddN:
		k := min(max(int(in.A), 0), len(w.stack))
		sum := chainSum(w.stack[len(w.stack)-k:], int(in.A))
		w.drop(len(w.stack) - k)
		w.push(sum)
	default:
		w.drop(len(w.stack) - min(max(in.pops(), 0), len(w.stack)))
		for range opTable[in.Op].pushes {
			w.push(Abs{})
		}
	}
}

// chainSum is what ADDN leaves of an n-slot chain whose top slots are
// s (fewer than n where the stack ran short). The VM joins every slot
// when the last pair is two strings and adds the pair otherwise, so
// when either is known to be a string the result is the whole chain's
// concatenation, led by the first slot's head, or the run stops.
// Otherwise the walker knows nothing of the result.
//
// The sum is binary's, pair by pair, made in time linear in the chain:
// a leading run of known strings joins in one allocation, and once the
// sum is anything else binary keeps or drops it in constant time.
func chainSum(s []Abs, n int) Abs {
	if len(s) < max(n, 2) || !s[len(s)-2].isString() && !s[len(s)-1].isString() {
		return Abs{}
	}
	known := func(a Abs) bool { return a.kind == absExact && a.v.k == KindString }
	sum, j := s[0], 1
	if known(sum) {
		size := int(sum.v.n)
		for ; j < len(s) && known(s[j]); j++ {
			size += int(s[j].v.n)
		}
		if j > 1 {
			var b strings.Builder
			b.Grow(size)
			for _, a := range s[:j] {
				b.WriteString(a.v.str())
			}
			sum = Abs{kind: absExact, v: Str(b.String()), folded: true}
		}
	}
	for _, a := range s[j:] {
		sum = binary(TokPlus, sum, a)
	}
	return sum
}

// exact is v, computed by the walker, when known, else unknown.
func exact(v Value, known bool) Abs {
	if !known {
		return Abs{}
	}
	return Abs{kind: absExact, v: v, folded: true}
}

// pushed is what the walker knows of the value in pushes: exactly it,
// when in pushes a constant.
func pushed(c *Compiled, in Instr) Abs {
	if v, ok := constOf(c, in); ok {
		return Abs{kind: absExact, v: v}
	}
	return Abs{}
}

func (w *Walker) push(a Abs) { w.stack, w.ids = append(w.stack, a), append(w.ids, -1) }

// pop takes the top value; an empty stack yields unknown.
func (w *Walker) pop() (a Abs) {
	if n := len(w.stack); n > 0 {
		a = w.stack[n-1]
		w.drop(n - 1)
	}
	return a
}

// drop truncates the stack to n slots.
func (w *Walker) drop(n int) { w.stack, w.ids = w.stack[:n], w.ids[:n] }

func (w *Walker) local(i int32) Abs {
	if i >= 0 && int(i) < len(w.locals) {
		return w.locals[i]
	}
	return Abs{}
}

func (w *Walker) setLocal(i int32, a Abs) {
	if i >= 0 && int(i) < len(w.locals) {
		w.locals[i], w.set = a, append(w.set, i)
	}
}

// resize returns s with length n, zeroed, reusing its array if it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
