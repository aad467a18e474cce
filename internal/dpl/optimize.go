package dpl

// Bytecode optimizer. The source-level analyzer (internal/dpl/analysis)
// reports constant conditions, unreachable statements and dead stores as
// diagnostics; this pass applies the same facts to the object code so
// that what ships down a delegation tree is the smallest program with
// identical semantics. Every rewrite is semantics-preserving by
// construction: folding uses the VM's own arith/compare/Truthy rules and
// refuses to fold anything that would raise a runtime error (division by
// zero, type mismatches), so errors still happen at run time exactly
// where the unoptimized program raised them.
//
// CompilerVersion stamps compiled artifacts (see program.go). It must
// be bumped whenever the instruction encoding or the optimizer's
// observable output changes shape. Generation 3 added the
// superinstruction set (OpLoadLConstBin..OpDecL).
const CompilerVersion = 3

// MinCompilerVersion is the oldest artifact generation receivers still
// accept. Generation-2 bytecode uses a strict subset of the current
// instruction set, so it loads, verifies and runs unchanged; anything
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

// Total returns the number of individual rewrites.
func (s OptStats) Total() int {
	return s.Folded + s.Propagated + s.DeadCode + s.DeadStores + s.Fused
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
	c.InitCode = optimizeCode(c, o, c.InitCode, 0, nil, &st)
	for _, fn := range c.Funcs {
		fn.Code = optimizeCode(c, o, fn.Code, fn.NumLocals, fn, &st)
	}
	c.invalidateVerify()
	return st
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
type optimizer struct {
	c   *Compiled
	idx map[Value]int // c.Consts by value; built by the first intern

	tgt   []bool   // jumpTargets
	dead  []bool   // instructions to remove; dropDeadStores' loaded locals
	remap []int    // compact's positions; dropUnreachable's worklist
	vals  []absVal // propagateConsts' locals
	stack []absVal // propagateConsts' operand stack, grown as needed
}

func newOptimizer(c *Compiled) *optimizer {
	n, nLocals := len(c.InitCode)+1, 0 // positions 0..len(code); frame slots
	for _, fn := range c.Funcs {
		n, nLocals = max(n, len(fn.Code)+1), max(nLocals, fn.NumLocals)
	}
	return &optimizer{
		c:     c,
		tgt:   make([]bool, n),
		dead:  make([]bool, max(n, nLocals)),
		remap: make([]int, n),
		vals:  make([]absVal, nLocals),
	}
}

// intern returns the index of v in c.Consts, appending it if new.
func (o *optimizer) intern(v Value) int {
	if o.idx == nil {
		o.idx = make(map[Value]int, len(o.c.Consts))
		for i, v := range o.c.Consts {
			if _, ok := o.idx[v]; !ok {
				o.idx[v] = i
			}
		}
	}
	if i, ok := o.idx[v]; ok {
		return i
	}
	i := len(o.c.Consts)
	o.c.Consts = append(o.c.Consts, v)
	o.idx[v] = i
	return i
}

// pushInstr returns the instruction that pushes v.
func (o *optimizer) pushInstr(v Value) Instr {
	switch x := v.(type) {
	case nil:
		return Instr{Op: OpNil}
	case bool:
		if x {
			return Instr{Op: OpTrue}
		}
		return Instr{Op: OpFalse}
	default:
		return Instr{Op: OpConst, A: o.intern(v)}
	}
}

// constOf reports the value in pushes, when it pushes a known constant.
func constOf(c *Compiled, in Instr) (Value, bool) {
	switch in.Op {
	case OpConst:
		if in.A >= 0 && in.A < len(c.Consts) {
			return c.Consts[in.A], true
		}
	case OpTrue:
		return true, true
	case OpFalse:
		return false, true
	case OpNil:
		return nil, true
	}
	return nil, false
}

// isJump reports whether op transfers control via its A operand.
func isJump(op Opcode) bool {
	return op == OpJump || op == OpJumpFalse || op == OpJFKeep || op == OpJTKeep ||
		op == OpBinJumpFalse
}

// jumpTargets returns a bitmap (indexed 0..len(code)) of instruction
// positions some jump lands on. Position len(code) is the implicit
// return-nil epilogue and is always a valid target.
func (o *optimizer) jumpTargets(code []Instr) []bool {
	tgt := o.tgt[:len(code)+1]
	clear(tgt)
	for _, in := range code {
		if isJump(in.Op) && in.A >= 0 && in.A <= len(code) {
			tgt[in.A] = true
		}
	}
	return tgt
}

// compact removes instructions marked dead, in place, and remaps jump
// targets. A target pointing at a removed instruction moves to the next
// surviving one (removals guarantee this preserves semantics).
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
		if isJump(in.Op) && in.A >= 0 && in.A <= len(code) {
			in.A = remap[in.A]
		}
		out = append(out, in)
	}
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
		if in := code[i]; isJump(in.Op) && in.Op != OpBinJumpFalse && in.A == i+1 {
			if in.Op == OpJumpFalse {
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
			var (
				v      Value
				err    error
				folded bool
			)
			switch in3 := code[i+2]; in3.Op {
			case OpBin:
				op := TokenKind(in3.A)
				switch op {
				case TokPlus, TokMinus, TokStar, TokSlash, TokPercent:
					v, err = arith(op, k1, k2)
				case TokLt, TokLe, TokGt, TokGe:
					v, err = compare(op, k1, k2)
				default:
					err = rtErrf("unfoldable operator")
				}
				folded = err == nil
			case OpEq:
				v, folded = valueEqual(k1, k2), true
			case OpNe:
				v, folded = !valueEqual(k1, k2), true
			}
			if folded {
				code[i] = o.pushInstr(v)
				dead[i+1], dead[i+2] = true, true
				st.Folded++
				changed = true
				continue
			}
		}
		// push K ; unary / constant branch
		switch next.Op {
		case OpNeg:
			switch x := k1.(type) {
			case int64:
				code[i] = o.pushInstr(-x)
			case float64:
				code[i] = o.pushInstr(-x)
			default:
				continue
			}
			dead[i+1] = true
			st.Folded++
			changed = true
		case OpNot:
			code[i] = o.pushInstr(!Truthy(k1))
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

// dropUnreachable removes instructions no control path reaches.
func dropUnreachable(o *optimizer, code []Instr, st *OptStats) ([]Instr, bool) {
	if len(code) == 0 {
		return code, false
	}
	dead := o.dead[:len(code)] // until the walk from the entry reaches it
	for i := range dead {
		dead[i] = true
	}
	// The worklist (one entry per conditional jump, at most) borrows
	// compact's array, idle until the walk is over.
	work := append(o.remap[:0], 0)
	for len(work) > 0 {
		ip := work[len(work)-1]
		work = work[:len(work)-1]
		for ip >= 0 && ip < len(code) && dead[ip] {
			dead[ip] = false
			in := code[ip]
			switch in.Op {
			case OpJump:
				ip = in.A
				continue
			case OpJumpFalse, OpJFKeep, OpJTKeep, OpBinJumpFalse:
				if in.A >= 0 && in.A < len(code) && dead[in.A] {
					work = append(work, in.A)
				}
			case OpReturn, OpReturnNil:
				ip = -1
				continue
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
	mark := func(i int) {
		if i >= 0 && i < nLocals {
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
		if in.Op == OpStoreL && in.A >= 0 && in.A < nLocals && !loaded[in.A] {
			code[i] = Instr{Op: OpPop}
			st.DeadStores++
			changed = true
		}
	}
	return changed
}

// absVal is a may-be-known stack or local slot value during
// propagation.
type absVal struct {
	known bool
	v     Value
}

// propagateConsts replaces loads of locals that provably hold a
// constant with a direct push. The walk tracks exact stack effects
// within each basic block and forgets everything at block leaders (jump
// targets), which makes the replacement sound: an instruction mid-block
// is only reachable through its leader, executing every intervening
// store.
func propagateConsts(c *Compiled, o *optimizer, code []Instr, nLocals int, st *OptStats) bool {
	locals := o.vals[:nLocals]
	tgt := o.jumpTargets(code)
	changed := false
	reset := func() {
		clear(locals)
		o.stack = o.stack[:0]
	}
	reset()
	pop := func(n int) bool {
		if n < 0 || len(o.stack) < n {
			return false
		}
		o.stack = o.stack[:len(o.stack)-n]
		return true
	}
	push := func(v absVal) { o.stack = append(o.stack, v) }
	for ip := 0; ip < len(code); ip++ {
		if tgt[ip] {
			reset()
		}
		in := code[ip]
		switch in.Op {
		case OpConst, OpTrue, OpFalse, OpNil:
			v, ok := constOf(c, in)
			push(absVal{known: ok, v: v})
		case OpLoadL:
			if in.A < 0 || in.A >= nLocals {
				return changed // malformed; leave for the verifier
			}
			if lv := locals[in.A]; lv.known {
				code[ip] = o.pushInstr(lv.v)
				st.Propagated++
				changed = true
				push(lv)
			} else {
				push(absVal{})
			}
		case OpStoreL:
			if in.A < 0 || in.A >= nLocals || len(o.stack) == 0 {
				return changed
			}
			locals[in.A] = o.stack[len(o.stack)-1]
			pop(1)
		case OpLoadG:
			push(absVal{})
		case OpStoreG, OpPop:
			if !pop(1) {
				return changed
			}
		case OpBin, OpEq, OpNe, OpIndex:
			if !pop(2) {
				return changed
			}
			push(absVal{})
		case OpNeg, OpNot:
			if !pop(1) {
				return changed
			}
			push(absVal{})
		case OpJump, OpReturn, OpReturnNil:
			reset()
		case OpJumpFalse:
			if !pop(1) {
				return changed
			}
		case OpJFKeep, OpJTKeep:
			if len(o.stack) == 0 {
				return changed
			}
			// The kept top survives, but its value is branch-dependent
			// at the join; treat it as unknown from here on.
			o.stack[len(o.stack)-1] = absVal{}
		case OpCall, OpCallHost:
			// Callees cannot touch this frame's locals.
			if !pop(in.B) {
				return changed
			}
			push(absVal{})
		case OpSetIndex:
			if !pop(3) {
				return changed
			}
		case OpArray:
			if !pop(in.A) {
				return changed
			}
			push(absVal{})
		case OpMap:
			if in.A < 0 || !pop(2*in.A) {
				return changed
			}
			push(absVal{})
		default:
			return changed
		}
	}
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
	localOK := func(i int) bool { return i >= 0 && i < nLocals }
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
				switch mid := code[i+1]; {
				case mid.Op == OpConst && mid.A >= 0:
					code[i] = Instr{Op: OpLoadLConstBin, A: in.A, B: PackIdxOp(mid.A, op)}
				case mid.Op == OpLoadL && localOK(mid.A):
					code[i] = Instr{Op: OpLoadLLoadLBin, A: in.A, B: PackIdxOp(mid.A, op)}
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
			code[i] = Instr{Op: OpBinJumpFalse, A: code[i+1].A, B: int(op)}
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
