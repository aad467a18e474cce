package dpl

import "sync"

// Bytecode optimizer. The static analyzer (internal/dpl/analysis)
// reports constant conditions, unreachable statements and dead stores
// as diagnostics from the compiler's output; this pass applies the same
// facts to the object code so that what ships down a delegation tree is
// the smallest program with identical semantics, the code the analyzer
// then prices. Every rewrite is semantics-preserving by
// construction: folding uses the VM's own Binary/Negate/Truthy rules and
// refuses to fold anything that would raise a runtime error (division by
// zero, type mismatches), so errors still happen at run time exactly
// where the unoptimized program raised them.
//
// CompilerVersion stamps compiled artifacts (see program.go). It must
// be bumped whenever the instruction encoding or the optimizer's
// observable output changes shape. Generation 3 added the
// superinstruction set (OpLoadLConstBin..OpDecL), generation 4 the
// string-chain pair (OpAddC, OpAddN).
const CompilerVersion = 4

// MinCompilerVersion is the oldest artifact generation receivers still
// accept. Generation-2 and -3 bytecode use strict subsets of the current
// instruction set, so they load, verify and run unchanged; anything
// older predates the CompiledProgram wire format entirely. verify.Verify
// enforces the [MinCompilerVersion, CompilerVersion] window and
// additionally refuses artifacts whose claimed version predates opcodes
// they contain (see OpcodeVersion).
const MinCompilerVersion = 2

// OptStats counts the rewrites one Optimize call performed.
type OptStats struct {
	// Folded counts constant expressions and constant branches
	// collapsed.
	Folded int
	// Propagated counts local-variable loads replaced by the constant
	// the local provably holds.
	Propagated int
	// DeadCode counts unreachable instructions removed.
	DeadCode int
	// DeadStores counts stores to never-read locals turned into pops.
	DeadStores int
	// Fused counts instruction pairs/triples collapsed into
	// superinstructions.
	Fused int
}

// maxOptRounds bounds the fold/propagate/eliminate fixpoint loop. Each
// productive round strictly shrinks or simplifies the code, so the bound
// exists only as a backstop.
const maxOptRounds = 32

// Optimize rewrites c's bytecode in place — constant folding and
// propagation, constant-branch elimination, unreachable-code removal and
// dead-store elimination — and returns counts of what it did. The
// rewritten program computes exactly what the original computed,
// including runtime errors.
func Optimize(c *Compiled) OptStats {
	var st OptStats
	o := newOptimizer(c)
	defer o.release()
	o.marks = loopsAndCalls(c.initMarks)
	c.InitCode = optimizeCode(c, o, c.InitCode, 0, nil, &st)
	c.initMarks = o.marks
	for _, fn := range c.Funcs {
		o.marks = loopsAndCalls(fn.marks)
		fn.Code = optimizeCode(c, o, fn.Code, fn.NumLocals, fn, &st)
		fn.marks = o.marks
	}
	if l := c.lowered; l != nil {
		c.lowered = nil
		c.ownCode()
		lowerings.put(l)
	}
	c.invalidateVerify()
	return st
}

// ownCode moves the optimized blocks, each compacted in place inside
// the compiler's code array, into one array of their total length, and
// the constants into one of theirs.
func (c *Compiled) ownCode() {
	n := len(c.InitCode)
	for _, fn := range c.Funcs {
		n += len(fn.Code)
	}
	code := make([]Instr, 0, n)
	own := func(b []Instr) []Instr {
		code = append(code, b...)
		return code[len(code)-len(b) : len(code) : len(code)]
	}
	c.InitCode = own(c.InitCode)
	for _, fn := range c.Funcs {
		fn.Code = own(fn.Code)
	}
	c.Consts = append([]Value(nil), c.Consts...)
}

// loopsAndCalls returns, in a table of their own, the marks of ms that
// the readers of optimized code use: loop heads and host calls. Marks
// of statements and reads, which only the compiler's output is read
// for, are dropped, so a stored program keeps no more of the table
// than it needs.
func loopsAndCalls(ms []Mark) []Mark {
	n := 0
	for _, m := range ms {
		if m.Kind >= MarkLoop {
			n++
		}
	}
	out := make([]Mark, 0, n)
	for _, m := range ms {
		if m.Kind >= MarkLoop {
			out = append(out, m)
		}
	}
	return out
}

// optimizeCode runs the pass pipeline over one code block to fixpoint,
// then fuses superinstructions as the final step (fused opcodes are
// opaque to the scalar passes, so fusing last loses nothing). fn is nil
// for the init block (which has no locals and whose global stores must
// survive: globals are observable after the run).
func optimizeCode(c *Compiled, o *optimizer, code []Instr, nLocals int, fn *CompiledFunc, st *OptStats) []Instr {
	for round := 0; round < maxOptRounds; round++ {
		changed := false
		if propagateConsts(c, o, code, nLocals, st) {
			changed = true
		}
		var did bool
		if code, did = foldCode(c, o, code, st); did {
			changed = true
		}
		if code, did = dropUnreachable(o, code, st); did {
			changed = true
		}
		if fn != nil && dropDeadStores(o, code, nLocals, st) {
			changed = true
		}
		if !changed {
			break
		}
	}
	code, _ = fuseSuperinstructions(o, code, nLocals, st)
	return code
}

// optimizer is what the passes of one Optimize call share: the interner
// of optimizer-produced constants, and working memory sized once for
// the program's longest code block, which each pass slices and clears.
// The memory passes from one Optimize call to the next through
// optimizers.
type optimizer struct {
	c      *Compiled
	consts constPool // interns optimizer-produced constants into c.Consts

	tgt   []bool // jumpTargets
	dead  []bool // instructions to remove; dropDeadStores' loaded locals
	remap []int  // compact's positions; dropUnreachable's worklist
	walk  Walker // propagateConsts' abstract interpretation
	marks []Mark // the current block's position table (Compiled.Marks)
}

var optimizers = sync.Pool{New: func() any { return new(optimizer) }}

func newOptimizer(c *Compiled) *optimizer {
	n, nLocals := len(c.InitCode)+1, 0 // positions 0..len(code); frame slots
	for _, fn := range c.Funcs {
		n, nLocals = max(n, len(fn.Code)+1), max(nLocals, fn.NumLocals)
	}
	o := optimizers.Get().(*optimizer)
	o.c, o.consts.c = c, c
	o.tgt, o.dead, o.remap = resize(o.tgt, n), resize(o.dead, max(n, nLocals)), resize(o.remap, n)
	return o
}

// release hands o back for the next Optimize call.
func (o *optimizer) release() {
	o.consts.release()
	o.c, o.consts.c, o.marks = nil, nil, nil
	optimizers.Put(o)
}

// pushInstr returns the instruction that pushes v.
func (o *optimizer) pushInstr(v Value) Instr {
	switch v.k {
	case KindNil:
		return Instr{Op: OpNil}
	case KindBool:
		if v.n != 0 {
			return Instr{Op: OpTrue}
		}
		return Instr{Op: OpFalse}
	default:
		return Instr{Op: OpConst, A: int32(o.consts.intern(v))}
	}
}

// constOf reports the value in pushes, when it pushes a known constant.
func constOf(c *Compiled, in Instr) (Value, bool) {
	switch in.Op {
	case OpConst:
		if in.A >= 0 && int(in.A) < len(c.Consts) {
			return c.Consts[in.A], true
		}
	case OpTrue:
		return Bool(true), true
	case OpFalse:
		return Bool(false), true
	case OpNil:
		return Value{}, true
	}
	return Value{}, false
}

// jumpTargets returns a bitmap (indexed 0..len(code)) of instruction
// positions some jump lands on. Position len(code) is the implicit
// return-nil epilogue and is always a valid target.
func (o *optimizer) jumpTargets(code []Instr) []bool {
	tgt := o.tgt[:len(code)+1]
	clear(tgt)
	for _, in := range code {
		if t, ok := in.target(len(code)); ok {
			tgt[t] = true
		}
	}
	return tgt
}

// compact removes instructions marked dead, in place, and remaps jump
// targets. A target pointing at a removed instruction moves to the next
// surviving one (removals guarantee this preserves semantics). It is the
// only rewrite that removes instructions, and it keeps the position
// table aligned: a removed host call's mark goes with it, and a loop
// head's moves as the jumps to the head move.
func (o *optimizer) compact(code []Instr, dead []bool) []Instr {
	remap := o.remap[:len(code)+1]
	n := 0
	for i := range code {
		remap[i] = n
		if !dead[i] {
			n++
		}
	}
	remap[len(code)] = n
	out := code[:0] // never ahead of the instruction being read
	for i, in := range code {
		if dead[i] {
			continue
		}
		if t, ok := in.target(len(code)); ok {
			in.A = int32(remap[t])
		}
		out = append(out, in)
	}
	marks := o.marks[:0]
	for _, m := range o.marks {
		if m.Kind != MarkCall || !dead[m.IP] {
			m.IP = int32(remap[m.IP])
			marks = append(marks, m)
		}
	}
	o.marks = marks
	return out
}

// foldCode collapses constant expressions and constant branches. A
// pattern's interior instructions must not be jump targets — control
// entering mid-pattern would observe the intermediate stack.
func foldCode(c *Compiled, o *optimizer, code []Instr, st *OptStats) ([]Instr, bool) {
	tgt := o.jumpTargets(code)
	dead := o.dead[:len(code)]
	clear(dead)
	changed := false
	for i := 0; i < len(code); i++ {
		if dead[i] {
			continue
		}
		// A branch to the next instruction is a no-op (modulo the pop
		// OpJumpFalse performs either way). OpBinJumpFalse is exempt:
		// its binary operation runs — and may fault — whether or not
		// the branch is taken.
		if t, ok := code[i].target(len(code)); ok && t == i+1 && code[i].Op != OpBinJumpFalse {
			if code[i].Op == OpJumpFalse {
				code[i] = Instr{Op: OpPop}
			} else {
				dead[i] = true
			}
			st.Folded++
			changed = true
			continue
		}
		k1, ok1 := constOf(c, code[i])
		if !ok1 || i+1 >= len(code) || dead[i+1] || tgt[i+1] {
			continue
		}
		next := code[i+1]
		// push K ; pop  →  (nothing)
		if next.Op == OpPop {
			dead[i], dead[i+1] = true, true
			st.Folded++
			changed = true
			continue
		}
		// push K1 ; push K2 ; binop  →  push fold(K1 op K2)
		if k2, ok2 := constOf(c, next); ok2 && i+2 < len(code) && !dead[i+2] && !tgt[i+2] {
			op := TokEOF // no operator: nothing folds
			switch in3 := code[i+2]; in3.Op {
			case OpEq:
				op = TokEq
			case OpNe:
				op = TokNe
			case OpBin:
				if binOps[TokenKind(in3.A)] {
					op = TokenKind(in3.A)
				}
			}
			if op != TokEOF {
				if v, err := Binary(op, k1, k2); err == nil {
					code[i] = o.pushInstr(v)
					dead[i+1], dead[i+2] = true, true
					st.Folded++
					changed = true
					continue
				}
			}
			// push K1 ; push K2 ; ADDC … ADDN n  →  push K1+K2 … ADDN n-1:
			// the chain loses its first operand, and a chain of two is
			// a BIN +, as the compiler emits them.
			if code[i+2].Op == OpAddC {
				if j := chainEnd(code, i+2); j >= 0 {
					if v, err := Binary(TokPlus, k1, k2); err == nil {
						code[i] = o.pushInstr(v)
						dead[i+1], dead[i+2] = true, true
						if code[j].A--; code[j].A == 2 {
							code[j] = Instr{Op: OpBin, A: int32(TokPlus)}
						}
						st.Folded++
						changed = true
						continue
					}
				}
			}
		}
		// push K ; unary / constant branch
		switch next.Op {
		case OpNeg:
			v, err := Negate(k1)
			if err != nil {
				continue
			}
			code[i] = o.pushInstr(v)
			dead[i+1] = true
			st.Folded++
			changed = true
		case OpNot:
			code[i] = o.pushInstr(Bool(!Truthy(k1)))
			dead[i+1] = true
			st.Folded++
			changed = true
		case OpJumpFalse:
			if Truthy(k1) {
				dead[i], dead[i+1] = true, true // never taken: push+branch vanish
			} else {
				code[i] = Instr{Op: OpJump, A: next.A} // always taken
				dead[i+1] = true
			}
			st.Folded++
			changed = true
		case OpJFKeep:
			if Truthy(k1) {
				dead[i+1] = true // branch never taken; the push stays
			} else {
				code[i+1] = Instr{Op: OpJump, A: next.A}
			}
			st.Folded++
			changed = true
		case OpJTKeep:
			if Truthy(k1) {
				code[i+1] = Instr{Op: OpJump, A: next.A}
			} else {
				dead[i+1] = true
			}
			st.Folded++
			changed = true
		}
	}
	if !changed {
		return code, false
	}
	return o.compact(code, dead), true
}

// chainEnd returns the position of the ADDN that ends the + chain
// whose first ADDC is at ip, or -1 when the code after ip is not the
// rest of a chain of at least three operands. From ip on each operand
// pushes one value above the chain's slots (h counts them), and only
// the chain's own ADDC and ADDN reach below it.
func chainEnd(code []Instr, ip int) int {
	h := 0
	for j := ip + 1; j < len(code); j++ {
		in := code[j]
		if h == 1 && in.Op == OpAddN {
			if in.A < 3 {
				return -1
			}
			return j
		}
		if h == 1 && in.Op == OpAddC {
			h = 0
			continue
		}
		p := in.pops()
		if falls, _ := OpcodeFlow(in.Op); p < 0 || p > h || !falls {
			return -1
		}
		h += int(opTable[in.Op].pushes) - p
	}
	return -1
}

// dropUnreachable removes instructions no control path reaches.
func dropUnreachable(o *optimizer, code []Instr, st *OptStats) ([]Instr, bool) {
	if len(code) == 0 {
		return code, false
	}
	dead := o.dead[:len(code)] // until the walk from the entry reaches it
	for i := range dead {
		dead[i] = true
	}
	// The worklist (one entry per jump, at most) borrows compact's
	// array, idle until the walk is over.
	work := append(o.remap[:0], 0)
	for len(work) > 0 {
		ip := work[len(work)-1]
		work = work[:len(work)-1]
		for ip < len(code) && dead[ip] {
			dead[ip] = false
			if t, ok := code[ip].target(len(code)); ok && t < len(code) && dead[t] {
				work = append(work, t)
			}
			if falls, _ := OpcodeFlow(code[ip].Op); !falls {
				break
			}
			ip++
		}
	}
	removed := 0
	for _, d := range dead {
		if d {
			removed++
		}
	}
	if removed == 0 {
		return code, false
	}
	st.DeadCode += removed
	return o.compact(code, dead), true
}

// dropDeadStores turns stores to locals the function never loads into
// pops. Globals are exempt: they are observable after the run.
func dropDeadStores(o *optimizer, code []Instr, nLocals int, st *OptStats) bool {
	if nLocals == 0 {
		return false
	}
	loaded := o.dead[:nLocals]
	clear(loaded)
	mark := func(i int32) {
		if i >= 0 && int(i) < nLocals {
			loaded[i] = true
		}
	}
	for _, in := range code {
		switch in.Op {
		case OpLoadL, OpLoadLConstBin, OpIncL, OpDecL:
			mark(in.A)
		case OpLoadLLoadLBin:
			mark(in.A)
			idx, _ := UnpackIdxOp(in.B)
			mark(idx)
		}
	}
	changed := false
	for i, in := range code {
		if in.Op == OpStoreL && in.A >= 0 && int(in.A) < nLocals && !loaded[in.A] {
			code[i] = Instr{Op: OpPop}
			st.DeadStores++
			changed = true
		}
	}
	return changed
}

// propagateConsts replaces loads of locals that provably hold a
// constant with a direct push. The walker forgets locals at every block
// leader, which makes the replacement sound: an instruction mid-block
// is only reachable through its leader, executing every intervening
// store. The walker knows more than the pass uses, because compiled
// artifacts are pinned byte for byte (CompilerVersion): the pass
// rewrites only to a constant the code pushed, not one the walker
// folded, and stops at the first fused opcode (generation 3: opaque to
// the scalar passes) and at the first instruction that falls through
// after popping a value its block did not push.
func propagateConsts(c *Compiled, o *optimizer, code []Instr, nLocals int, st *OptStats) bool {
	changed := false
	o.walk.Walk(c, code, nLocals, func(ip int, stack, _ []Abs) bool {
		in := code[ip]
		if falls, _ := OpcodeFlow(in.Op); opTable[in.Op].gen == 3 || falls && len(stack)-in.pops() < o.walk.entry {
			return false
		}
		if lv := o.walk.local(in.A); in.Op == OpLoadL && lv.kind == absExact && !lv.folded {
			code[ip] = o.pushInstr(lv.v)
			st.Propagated++
			changed = true
		}
		return true
	})
	return changed
}

// fusePatterns documents the superinstruction set for the curious
// reader of listings; the authoritative matcher is below.
//
//	LOADL a; CONST k; BIN ±; STOREL a  →  INCL/DECL a, k
//	LOADL a; CONST k; BIN op           →  LLCB a, k, op
//	LOADL a; LOADL b; BIN op           →  LLLB a, b, op
//	BIN op; JF t                       →  BJF op, t
//	CONST k; STOREL l                  →  KSTL k, l
//
// fuseSuperinstructions rewrites those patterns in place (generation 3;
// see CompilerVersion). It runs after the scalar passes reach fixpoint:
// fused opcodes are opaque to propagation and folding, so fusing last
// keeps the scalar passes maximally effective. Matching is longest-first
// at each position, and a pattern's interior instructions must not be
// jump targets — control entering mid-pattern would observe the
// unfused intermediate stack. Only plain OpConst operands fuse (the
// nil/true/false pushes have no pool index to pack).
func fuseSuperinstructions(o *optimizer, code []Instr, nLocals int, st *OptStats) ([]Instr, bool) {
	tgt := o.jumpTargets(code)
	dead := o.dead[:len(code)]
	clear(dead)
	changed := false
	localOK := func(i int32) bool { return i >= 0 && int(i) < nLocals }
	binOp := func(in Instr) (TokenKind, bool) {
		if in.Op != OpBin {
			return 0, false
		}
		op := TokenKind(in.A)
		return op, binOps[op]
	}
	for i := 0; i < len(code); i++ {
		if dead[i] {
			continue
		}
		in := code[i]
		// LOADL a; CONST k; BIN ±; STOREL a → INCL/DECL a, k
		if in.Op == OpLoadL && localOK(in.A) && i+3 < len(code) &&
			!tgt[i+1] && !tgt[i+2] && !tgt[i+3] &&
			code[i+1].Op == OpConst && code[i+1].A >= 0 &&
			code[i+3].Op == OpStoreL && code[i+3].A == in.A {
			if op, ok := binOp(code[i+2]); ok && (op == TokPlus || op == TokMinus) {
				fused := OpIncL
				if op == TokMinus {
					fused = OpDecL
				}
				code[i] = Instr{Op: fused, A: in.A, B: code[i+1].A}
				dead[i+1], dead[i+2], dead[i+3] = true, true, true
				st.Fused++
				changed = true
				i += 3
				continue
			}
		}
		// LOADL a; CONST k; BIN op → LLCB and LOADL a; LOADL b; BIN op → LLLB
		if in.Op == OpLoadL && localOK(in.A) && i+2 < len(code) && !tgt[i+1] && !tgt[i+2] {
			if op, ok := binOp(code[i+2]); ok {
				// An index too large to pack beside the operator stays
				// unfused.
				packed, ok := PackIdxOp(code[i+1].A, op)
				switch mid := code[i+1]; {
				case mid.Op == OpConst && ok:
					code[i] = Instr{Op: OpLoadLConstBin, A: in.A, B: packed}
				case mid.Op == OpLoadL && localOK(mid.A) && ok:
					code[i] = Instr{Op: OpLoadLLoadLBin, A: in.A, B: packed}
				default:
					goto pair
				}
				dead[i+1], dead[i+2] = true, true
				st.Fused++
				changed = true
				i += 2
				continue
			}
		}
	pair:
		// BIN op; JF t → BJF op, t
		if op, ok := binOp(in); ok && i+1 < len(code) && !tgt[i+1] && code[i+1].Op == OpJumpFalse {
			code[i] = Instr{Op: OpBinJumpFalse, A: code[i+1].A, B: int32(op)}
			dead[i+1] = true
			st.Fused++
			changed = true
			i++
			continue
		}
		// CONST k; STOREL l → KSTL k, l
		if in.Op == OpConst && in.A >= 0 && i+1 < len(code) && !tgt[i+1] &&
			code[i+1].Op == OpStoreL && localOK(code[i+1].A) {
			code[i] = Instr{Op: OpConstStoreL, A: in.A, B: code[i+1].A}
			dead[i+1] = true
			st.Fused++
			changed = true
			i++
			continue
		}
	}
	if !changed {
		return code, false
	}
	return o.compact(code, dead), true
}
