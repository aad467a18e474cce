package analysis

import (
	"fmt"
	"sort"
	"sync"
	"unsafe"

	"mbd/internal/dpl"
)

// Every pass of the analyzer reads a dpl.Graph of a code block: its
// basic blocks, less the way out of an if, while or for test whose
// value the walker knows (dpl.Branch). A short circuit keeps both its
// edges: it lies inside one statement, whose every operand the dataflow
// passes read.
//
// DPL001, DPL002, DPL003 and DPL004 read the compiler's output before
// Optimize, through the position table (dpl.Compiled.Marks). Its walk
// runs with no frame slots, so only literals decide a test, as they do
// in the source.

// note is what the walker found at instruction ip of Block(fn) that the
// block's graph reads: a test that goes one way only (decided), or the
// value a loop headed at ip enters its induction variable with, which
// the coster reads.
type note struct {
	fn, ip       int
	decided      bool
	falls, jumps bool
	init         dpl.Value
}

// Scratch is one translation's working memory: dpl's, whose walker
// every pass runs, and the analyzer's, reused from one code block to
// the next. A translation borrows one (Borrow), every pass of it works
// in it, and one Release hands it back.
type Scratch struct {
	dpl.Scratch
	notes  []note    // in code order: by fn, then ip
	flags  []bool    // per function or per global: sundry
	stack  []int32   // the loops open at a block (coster.loops)
	words  []uint64  // bitsets
	nest   []nesting // per block: its place among the loops
	writes []uint64  // the writes to locals: local<<32 | position
	memo   []uint64  // per block: longest paths
	marks  []dpl.Pos // DPL004: first reads
	found  effectSet // recover's effects, before they are copied out
	// RecoverEffects': the effects of each block's own calls, of each
	// function's, of those a function reaches, and every function's
	// reached effects with their lengths, before they are copied out.
	direct   []effectSet
	own      []Effects
	reached  effectSet
	gathered []Effect
	lens     []int
	// costs and priced are a coster's funcs and state.
	costs  []CostEstimate
	priced []uint8
}

// scratches holds released scratches for the translations after: one
// per translation in flight, since admissions run concurrently.
var scratches = sync.Pool{New: func() any { return new(Scratch) }}

// maxKept bounds, in bytes, the buffers a released scratch keeps: 1 MiB,
// more than a program of a few thousand lines needs. The scratch of a
// larger one is left to the collector, so that one huge delegation does
// not stay resident.
const maxKept = 1 << 20

// Borrow takes a scratch for one translation.
func Borrow() *Scratch { return scratches.Get().(*Scratch) }

// Release clears s of its translation and keeps it for a later Borrow
// when its buffers hold at most maxKept bytes. The program s parsed is
// not valid afterwards; the object code and report the translation
// returned stay valid.
func (s *Scratch) Release() {
	if s.Clear()+s.free() <= maxKept {
		scratches.Put(s)
	}
}

// free clears the analyzer's buffers and returns the bytes they hold.
func (s *Scratch) free() int {
	n := clearAll(s.notes) + sizeOf(s.flags) + sizeOf(s.stack) +
		sizeOf(s.words) + sizeOf(s.nest) + sizeOf(s.writes) + sizeOf(s.memo) + sizeOf(s.marks) +
		s.found.free() + s.reached.free() + clearAll(s.own) + clearAll(s.gathered) + sizeOf(s.lens) +
		sizeOf(s.costs) + sizeOf(s.priced)
	all := s.direct[:cap(s.direct)]
	for i := range all {
		n += all[i].free()
	}
	return n + sizeOf(s.direct)
}

// walk runs the walker over Block(fn) with nLocals frame slots, adding
// to s.notes what the block's graph reads from it, and calls visit,
// when not nil, at each host call.
func (s *Scratch) walk(c *dpl.Compiled, fn, nLocals int, visit func(ip int, stack []dpl.Abs)) {
	_, code, _ := c.Block(fn)
	s.Walk(c, code, nLocals, func(ip int, stack, locals []dpl.Abs) bool {
		if visit != nil && code[ip].Op == dpl.OpCallHost {
			visit(ip, stack)
		}
		if in := code[ip]; in.Op == dpl.OpJumpFalse || in.Op == dpl.OpBinJumpFalse {
			if falls, jumps := dpl.Branch(in, stack); !falls || !jumps {
				s.notes = append(s.notes, note{fn: fn, ip: ip, decided: true, falls: falls, jumps: jumps})
			}
		}
		if ip+1 == len(code) || nLocals == 0 {
			return true
		}
		if v, ok := entry(c, code, ip, stack, locals); ok {
			s.notes = append(s.notes, note{fn: fn, ip: ip + 1, init: v})
		}
		return true
	})
}

// entry returns, when a loop test starts at ip+1, the value its local
// holds there from ip: what the walker knows of it once code[ip] has
// run from stack and locals.
func entry(c *dpl.Compiled, code []dpl.Instr, ip int, stack, locals []dpl.Abs) (dpl.Value, bool) {
	local, _, _, _, ok := loopTest(c, code[ip+1:])
	if in := code[ip]; !ok || (in.Op == dpl.OpIncL || in.Op == dpl.OpDecL) && int(in.A) == local || local < 0 || local >= len(locals) {
		return dpl.Value{}, false
	} else if in.Op == dpl.OpConstStoreL && int(in.B) == local && in.A >= 0 && int(in.A) < len(c.Consts) {
		return c.Consts[in.A], true
	} else if in.Op == dpl.OpStoreL && int(in.A) == local && len(stack) > 0 {
		return stack[len(stack)-1].Exact()
	}
	return locals[local].Exact()
}

// graph makes the scratch's graph that of Block(fn), less the way out
// of each test the notes of its walk decide.
func (s *Scratch) graph(c *dpl.Compiled, fn int) *dpl.Graph {
	_, code, _ := c.Block(fn)
	return s.Graph(code, func(ip int) (bool, bool) {
		if n, ok := s.note(fn, ip); ok && n.decided {
			return n.falls, n.jumps
		}
		return true, true
	})
}

// note returns the note of instruction ip of Block(fn), if any.
func (s *Scratch) note(fn, ip int) (note, bool) {
	i := sort.Search(len(s.notes), func(i int) bool { n := s.notes[i]; return n.fn > fn || n.fn == fn && n.ip >= ip })
	if i == len(s.notes) || s.notes[i].fn != fn || s.notes[i].ip != ip {
		return note{}, false
	}
	return s.notes[i], true
}

// diagnose appends the findings of the compiler's output before
// Optimize: unreachable code, reads before assignment and dead stores
// in each function, and globals read but never written.
func (s *Scratch) diagnose(prog *dpl.Program, c *dpl.Compiled, diags *[]dpl.Diagnostic) {
	for i, f := range prog.Funcs[:min(len(prog.Funcs), len(c.Funcs))] {
		s.notes = s.notes[:0]
		s.walk(c, i, 0, nil)
		g, marks := s.graph(c, i), c.Marks(i)
		s.unreachable(g, marks, diags)
		s.assigned(g, marks, f, diags)
		s.live(g, marks, f, diags)
	}
	s.globals(c, diags)
}

// unreachable reports DPL002 once per unreachable region: at the first
// statement of an unreachable block no edge enters.
func (s *Scratch) unreachable(g *dpl.Graph, marks []dpl.Mark, diags *[]dpl.Diagnostic) {
	for _, b := range g.Blocks {
		if b.Reach || b.Entered {
			continue
		}
		for _, m := range marksIn(marks, int(b.Start), int(b.End)) {
			if m.Kind <= dpl.MarkAssign {
				*diags = append(*diags, dpl.Diagnostic{Code: dpl.CodeUnreachable, Sev: dpl.SevWarning, Pos: m.Pos, Msg: "unreachable code"})
				break
			}
		}
	}
}

// assigned is the definite-assignment pass: a forward must-analysis
// over the frame's locals, which reports DPL001 at each read of a local
// some path reaches unassigned. Parameters are assigned at entry; a
// bare declaration's nil is no assignment.
func (s *Scratch) assigned(g *dpl.Graph, marks []dpl.Mark, f *dpl.FuncDecl, diags *[]dpl.Diagnostic) {
	n, params := len(f.Locals), len(f.Params)
	sets, cur := s.sets(len(g.Blocks)+1, n) // per block: what is assigned where it starts
	for i := range sets {
		sets[i] = ^uint64(0)
	}
	clear(sets[:len(cur)])
	for i := range params {
		set(sets, i)
	}
	solve(g, false, func(i int, report bool) (changed bool) {
		b := g.Blocks[i]
		copy(cur, sets[i*len(cur):])
		for ip := b.Start; ip < b.End; ip++ {
			in := g.Code[ip]
			a := int(in.A)
			if a < 0 || a >= n {
				continue
			}
			if in.Op == dpl.OpLoadL && report && a >= params && !has(cur, a) {
				if m, ok := markAt(marks, int(ip), dpl.MarkRead); ok {
					*diags = append(*diags, dpl.Diagnostic{Code: dpl.CodeUseBeforeInit, Sev: dpl.SevWarning, Pos: m.Pos,
						Msg: fmt.Sprintf("variable %q may be used before it is assigned (reads as nil)", f.Locals[a])})
				}
			} else if in.Op == dpl.OpStoreL && !bare(marks, int(ip)) {
				set(cur, a)
			}
		}
		for _, t := range b.Succ {
			changed = t >= 0 && meet(sets[int(t)*len(cur):(int(t)+1)*len(cur)], cur, false) || changed
		}
		return changed
	})
}

// live is the liveness pass: a backward may-analysis over the frame's
// locals, which reports DPL003 at each store no path reads. A
// declaration whose initializer is a bare literal is exempt, as idiom.
func (s *Scratch) live(g *dpl.Graph, marks []dpl.Mark, f *dpl.FuncDecl, diags *[]dpl.Diagnostic) {
	n := len(f.Locals)
	sets, cur := s.sets(len(g.Blocks)+1, n) // per block: what is live where it starts
	solve(g, true, func(i int, report bool) bool {
		b := g.Blocks[i]
		clear(cur)
		for _, t := range b.Succ {
			if t >= 0 {
				meet(cur, sets[int(t)*len(cur):(int(t)+1)*len(cur)], true)
			}
		}
		for ip := b.End - 1; ip >= b.Start; ip-- {
			in := g.Code[ip]
			a := int(in.A)
			if a < 0 || a >= n {
				continue
			}
			if in.Op == dpl.OpLoadL {
				set(cur, a)
			} else if in.Op == dpl.OpStoreL && !bare(marks, int(ip)) {
				if report && !has(cur, a) {
					deadStore(g.Code, marks, int(ip), f.Locals[a], diags)
				}
				cur[a/64] &^= 1 << (a % 64)
			}
		}
		return meet(sets[i*len(cur):(i+1)*len(cur)], cur, true)
	})
}

// solve runs step over g's reachable blocks, in code order or backward,
// until a round changes nothing, then once more over each to report.
func solve(g *dpl.Graph, backward bool, step func(i int, report bool) bool) {
	n := len(g.Blocks)
	for changed := true; changed; {
		changed = false
		for k := range n {
			i := k
			if backward {
				i = n - 1 - k
			}
			if g.Blocks[i].Reach {
				changed = step(i, false) || changed
			}
		}
	}
	for i := range n {
		if g.Blocks[i].Reach {
			step(i, true)
		}
	}
}

// deadStore reports the store at ip of name, by the statement it ends.
func deadStore(code []dpl.Instr, marks []dpl.Mark, ip int, name string, diags *[]dpl.Diagnostic) {
	m, ok := statement(marks, ip)
	verb := "assigned to"
	if !ok || m.Kind != dpl.MarkDecl && m.Kind != dpl.MarkAssign {
		return
	}
	if m.Kind == dpl.MarkDecl {
		if op := code[m.IP].Op; int(m.IP)+1 == ip && (op == dpl.OpConst || op == dpl.OpNil || op == dpl.OpTrue || op == dpl.OpFalse) {
			return
		}
		verb = "stored in"
	}
	*diags = append(*diags, dpl.Diagnostic{Code: dpl.CodeDeadStore, Sev: dpl.SevWarning, Pos: m.Pos,
		Msg: fmt.Sprintf("value %s %q is never used", verb, name)})
}

// globals reports DPL004 for each global read somewhere but assigned
// nowhere, dead code included, at its first read: in the global
// initializers if any reads it there, else in the functions.
func (s *Scratch) globals(c *dpl.Compiled, diags *[]dpl.Diagnostic) {
	n := len(c.GlobalNames)
	written := resize(s.flags, n)
	first := resize(s.marks, 2*n) // the first read in the initializers, then in the functions
	s.flags, s.marks = written, first
	for fn := -1; fn < len(c.Funcs); fn++ {
		_, code, _ := c.Block(fn)
		marks := c.Marks(fn)
		for ip, in := range code {
			a := int(in.A)
			if a < 0 || a >= n {
				continue
			}
			if in.Op == dpl.OpStoreG {
				m, _ := statement(marks, ip)
				written[a] = written[a] || fn >= 0 || m.Kind == dpl.MarkDecl
			} else if in.Op != dpl.OpLoadG {
				continue
			} else if m, ok := markAt(marks, ip, dpl.MarkRead); ok {
				p := &first[a+n*min(fn+1, 1)]
				if p.Line == 0 || before(m.Pos, *p) {
					*p = m.Pos
				}
			}
		}
	}
	for i, name := range c.GlobalNames {
		p := first[i]
		if p.Line == 0 {
			p = first[i+n]
		}
		if !written[i] && p.Line != 0 {
			*diags = append(*diags, dpl.Diagnostic{Code: dpl.CodeGlobalNeverWritten, Sev: dpl.SevWarning, Pos: p,
				Msg: fmt.Sprintf("global %q is read but never written anywhere (always nil)", name)})
		}
	}
}

func before(a, b dpl.Pos) bool { return a.Line < b.Line || a.Line == b.Line && a.Col < b.Col }

// marksIn returns the marks on instructions start to end-1.
func marksIn(marks []dpl.Mark, start, end int) []dpl.Mark {
	i := sort.Search(len(marks), func(i int) bool { return int(marks[i].IP) >= start })
	j := sort.Search(len(marks), func(i int) bool { return int(marks[i].IP) >= end })
	return marks[i:j]
}

// markAt returns the mark of kind on instruction ip.
func markAt(marks []dpl.Mark, ip int, kind dpl.MarkKind) (dpl.Mark, bool) {
	for _, m := range marksIn(marks, ip, ip+1) {
		if m.Kind == kind {
			return m, true
		}
	}
	return dpl.Mark{}, false
}

// statement returns the mark of the statement holding instruction ip:
// the last statement mark at or before it.
func statement(marks []dpl.Mark, ip int) (dpl.Mark, bool) {
	for ms := marksIn(marks, 0, ip+1); len(ms) > 0; ms = ms[:len(ms)-1] {
		if m := ms[len(ms)-1]; m.Kind <= dpl.MarkAssign {
			return m, true
		}
	}
	return dpl.Mark{}, false
}

// bare reports whether the store at ip ends a declaration without an
// initializer: the nil it stores is no value the source assigned.
func bare(marks []dpl.Mark, ip int) bool {
	_, ok := markAt(marks, ip-1, dpl.MarkBare)
	return ok
}

// sets returns k-1 zeroed bitsets over n variables, one after another,
// and one more to work in.
func (s *Scratch) sets(k, n int) (all, cur []uint64) {
	w := (n + 63) / 64
	s.words = resize(s.words, k*w)
	return s.words[:(k-1)*w], s.words[(k-1)*w:]
}

func has(b []uint64, i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func set(b []uint64, i int)      { b[i/64] |= 1 << (i % 64) }

// meet sets b to b&o, or b|o for a union, reporting whether b changed.
func meet(b, o []uint64, union bool) (changed bool) {
	for i := range b {
		n := b[i] & o[i]
		if union {
			n = b[i] | o[i]
		}
		changed, b[i] = changed || n != b[i], n
	}
	return changed
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

// clearAll zeroes the whole array under s and returns its size in bytes.
func clearAll[T any](s []T) int {
	clear(s[:cap(s)])
	return sizeOf(s)
}

// sizeOf is the size in bytes of the array under s.
func sizeOf[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}
