package dpl

// The constant-propagation pass as it stood before the abstract walker
// replaced its private stack machine, kept as the oracle for
// TestOptimizeMatchesReference: the walker-based pass must rewrite
// exactly the same loads, or compiled artifacts would change.

// refOptimizer adds the reference pass's scratch buffers to the
// optimizer the other passes share.
type refOptimizer struct {
	*optimizer
	vals  []absVal
	stack []absVal
}

// RefOptimize is Optimize with the reference propagation pass.
func RefOptimize(c *Compiled) OptStats {
	var st OptStats
	nLocals := 0
	for _, fn := range c.Funcs {
		nLocals = max(nLocals, fn.NumLocals)
	}
	o := &refOptimizer{optimizer: new(Scratch).optimizer(c), vals: make([]absVal, nLocals)}
	c.InitCode = refOptimizeCode(c, o, c.InitCode, 0, nil, &st)
	for _, fn := range c.Funcs {
		fn.Code = refOptimizeCode(c, o, fn.Code, fn.NumLocals, fn, &st)
	}
	c.invalidateVerify()
	return st
}

// refOptimizeCode is optimizeCode calling refPropagateConsts.
func refOptimizeCode(c *Compiled, o *refOptimizer, code []Instr, nLocals int, fn *CompiledFunc, st *OptStats) []Instr {
	for round := 0; round < maxOptRounds; round++ {
		changed := false
		if refPropagateConsts(c, o, code, nLocals, st) {
			changed = true
		}
		var did bool
		if code, did = foldCode(c, o.optimizer, o.walk.g.build(code, nil), st); did {
			changed = true
		}
		if code, did = dropUnreachable(o.optimizer, o.walk.g.build(code, nil), st); did {
			changed = true
		}
		if fn != nil && dropDeadStores(o.optimizer, code, nLocals, st) {
			changed = true
		}
		if !changed {
			break
		}
	}
	code, _ = fuseSuperinstructions(o.optimizer, code, nLocals, st)
	return code
}

// absVal is a may-be-known stack or local slot value during
// propagation.
type absVal struct {
	known bool
	v     Value
}

// refPropagateConsts is propagateConsts as it stood before the
// abstract walker: it replaces loads of locals that provably hold a
// constant with a direct push. The walk tracks exact stack effects
// within each basic block and forgets everything at block leaders (jump
// targets), which makes the replacement sound: an instruction mid-block
// is only reachable through its leader, executing every intervening
// store.
func refPropagateConsts(c *Compiled, o *refOptimizer, code []Instr, nLocals int, st *OptStats) bool {
	locals := o.vals[:nLocals]
	tgt := make([]bool, len(code)+1) // the jump targets
	for _, in := range code {
		if t, ok := in.target(len(code)); ok {
			tgt[t] = true
		}
	}
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
			if in.A < 0 || int(in.A) >= nLocals {
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
			if in.A < 0 || int(in.A) >= nLocals || len(o.stack) == 0 {
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
			if !pop(int(in.B)) {
				return changed
			}
			push(absVal{})
		case OpSetIndex:
			if !pop(3) {
				return changed
			}
		case OpArray:
			if !pop(int(in.A)) {
				return changed
			}
			push(absVal{})
		case OpMap:
			if in.A < 0 || !pop(2*int(in.A)) {
				return changed
			}
			push(absVal{})
		case OpAddC:
			if !pop(2) {
				return changed
			}
			push(absVal{})
			push(absVal{})
		case OpAddN:
			if !pop(int(in.A)) {
				return changed
			}
			push(absVal{})
		default:
			return changed
		}
	}
	return changed
}
