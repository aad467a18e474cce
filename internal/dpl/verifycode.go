package dpl

import (
	"cmp"
	"fmt"
)

// Structural bytecode verification. The VM's exec loop trusts its
// operands — constant/global/local indices, jump targets and stack
// discipline are unchecked per instruction, which keeps stepping cheap.
// That trust is earned here: VerifyStructure proves, by abstract
// interpretation over the opcode stream, that no reachable instruction
// can index out of bounds or underflow the operand stack, and VM.Run
// refuses to execute a program that fails the proof. Compiler output
// always passes; the check exists for bytecode that arrives over the
// wire (see CompiledProgram and internal/dpl/verify, which layers
// effect- and budget-consistency checks on top of these faults).

// FaultKind classifies one structural fault.
type FaultKind uint8

// Structural fault classes, mapped by internal/dpl/verify onto the
// DPL010–DPL013 diagnostic codes.
const (
	// FaultOpcode is an opcode outside the instruction set.
	FaultOpcode FaultKind = iota + 1
	// FaultJump is a jump target outside [0, len(code)].
	FaultJump
	// FaultStack is a stack underflow or an inconsistent stack depth at
	// a control-flow join.
	FaultStack
	// FaultOperand is an out-of-bounds constant, global, local,
	// function or host index, or a malformed immediate.
	FaultOperand
)

// String names the fault class.
func (k FaultKind) String() string {
	switch k {
	case FaultOpcode:
		return "opcode"
	case FaultJump:
		return "jump"
	case FaultStack:
		return "stack"
	case FaultOperand:
		return "operand"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// CodeFault is one structural defect found in a code block. IP is -1
// for faults about the function shape itself rather than an
// instruction.
type CodeFault struct {
	Func string // function name, or "<init>" for the initializer block
	IP   int
	Kind FaultKind
	Msg  string
}

// String renders the fault with its location.
func (f CodeFault) String() string {
	if f.IP < 0 {
		return fmt.Sprintf("%s: %s fault: %s", f.Func, f.Kind, f.Msg)
	}
	return fmt.Sprintf("%s+%d: %s fault: %s", f.Func, f.IP, f.Kind, f.Msg)
}

// maxFaults bounds the fault list so hostile inputs cannot make
// verification itself expensive.
const maxFaults = 64

// binOps is the set of operator immediates OpBin accepts: the arithmetic
// five and the relational four. Binary would also take == and != (the
// compiler emits OpEq and OpNe for those) and rejects anything else at
// run time; the verifier is stricter and faults every other immediate
// statically, so a verified program never reaches that path.
var binOps = map[TokenKind]bool{
	TokPlus: true, TokMinus: true, TokStar: true, TokSlash: true, TokPercent: true,
	TokLt: true, TokLe: true, TokGt: true, TokGe: true,
}

// VerifyStructure checks every code block of c and returns the
// structural faults found (nil when the program is safe to execute).
// As a by-product of the depth proof it records each block's
// operand-stack high-water mark (CompiledFunc.maxStack), which the
// flat-frame VM uses to size activation frames without growth checks
// inside the dispatch loop. The outcome is recorded too, so that the
// first Run of a program proved at admission does not prove it again.
func (s *Scratch) VerifyStructure(c *Compiled) []CodeFault {
	c.vmu.Lock()
	defer c.vmu.Unlock()
	return c.verifyLocked(&s.v, &s.g)
}

// EnsureStructure verifies c once and caches the outcome; subsequent
// calls (one per VM.Run) are a mutex hit. Optimize invalidates the
// cache after rewriting code.
func (c *Compiled) EnsureStructure() error {
	c.vmu.Lock()
	defer c.vmu.Unlock()
	if !c.vdone {
		c.verifyLocked(new(structVerifier), new(Graph))
	}
	return c.verr
}

// verifyLocked proves c's structure with v over graphs built in g and
// records the outcome for EnsureStructure. c.vmu must be held.
func (c *Compiled) verifyLocked(v *structVerifier, g *Graph) []CodeFault {
	v.reset()
	v.c = c
	c.initMaxStack = v.checkBlock("<init>", g.build(c.InitCode, nil), 0)
	for i, fn := range c.Funcs {
		name := fn.Name
		if name == "" {
			name = fmt.Sprintf("func#%d", i)
		}
		if fn.NumParams < 0 || fn.NumLocals < 0 || fn.NumParams > fn.NumLocals || fn.NumLocals > maxProgLocals {
			v.fault(name, -1, FaultOperand, fmt.Sprintf("implausible frame (params=%d locals=%d)", fn.NumParams, fn.NumLocals))
		}
		fn.maxStack = v.checkBlock(name, g.build(fn.Code, nil), fn.NumLocals)
	}
	c.vdone, c.verr = true, nil
	if faults := v.faults; len(faults) > 0 {
		more := ""
		if len(faults) > 1 {
			more = fmt.Sprintf(" (and %d more)", len(faults)-1)
		}
		c.verr = fmt.Errorf("dpl: structurally invalid bytecode: %s%s", faults[0], more)
	}
	return v.faults
}

// invalidateVerify drops the cached EnsureStructure outcome and the
// derived init frame (the code it wrapped may have been rewritten).
func (c *Compiled) invalidateVerify() {
	c.vmu.Lock()
	c.vdone = false
	c.verr = nil
	c.initFn = nil
	c.vmu.Unlock()
}

type structVerifier struct {
	c      *Compiled
	faults []CodeFault
	buf    []int32 // checkBlock's depths and work list, reused from block to block and call to call
}

// reset clears v of its program and returns the bytes its buffer holds.
func (v *structVerifier) reset() int {
	v.c, v.faults = nil, nil
	return sizeOf(v.buf)
}

func (v *structVerifier) fault(fn string, ip int, kind FaultKind, msg string) {
	if len(v.faults) < maxFaults {
		v.faults = append(v.faults, CodeFault{Func: fn, IP: ip, Kind: kind, Msg: msg})
	}
}

// operandsOK checks in's operands against the program's tables and
// the frame, faulting the first out of bounds. False means the
// instruction is too broken to interpret: its successors are not
// explored.
func (v *structVerifier) operandsOK(fn string, ip int, in Instr, nLocals, nCode int) bool {
	r := &opTable[in.Op]
	if r.name == "" {
		v.fault(fn, ip, FaultOpcode, fmt.Sprintf("unknown opcode %d", in.Op))
		return false
	}
	a, b := int(in.A), int(in.B)
	msg := v.operandFault(r.a, a, nLocals, nCode, r.count)
	if msg == "" && r.b != opdNone {
		msg = v.operandFault(r.b, b, nLocals, nCode, r.count)
	}
	// What no column states: LLLB names both its locals in one fault,
	// a call passes its callee's arity, and a chain has two operands.
	if i := b >> 8; r.b == opdLocalOp && (a < 0 || a >= nLocals || i < 0 || i >= nLocals) {
		msg = fmt.Sprintf("local index out of range (%d, %d of %d locals)", in.A, i, nLocals)
	} else if msg == "" && in.Op == OpCall && (b < 0 || b != v.c.Funcs[in.A].NumParams) {
		msg = fmt.Sprintf("call passes %d args, function %q takes %d", in.B, v.c.Funcs[in.A].Name, v.c.Funcs[in.A].NumParams)
	} else if msg == "" && in.Op == OpAddN && in.A < 2 {
		msg = fmt.Sprintf("chain of %d operands (ADDN needs at least 2)", in.A)
	}
	if msg != "" {
		v.fault(fn, ip, FaultOperand, msg)
	}
	return msg == ""
}

// operandFault describes why operand x of the given kind is out of
// bounds, or returns "". countFault words an implausible count. Jump
// targets are checked with the flow (FaultJump).
func (v *structVerifier) operandFault(kind operand, x, nLocals, nCode int, countFault string) string {
	n, format := 0, ""
	switch kind {
	case opdConst:
		n, format = len(v.c.Consts), "constant index %d out of range (pool size %d)"
	case opdGlobal:
		n, format = len(v.c.GlobalNames), "global index %d out of range (%d globals)"
	case opdLocal:
		n, format = nLocals, "local index %d out of range (%d locals)"
	case opdFunc:
		n, format = len(v.c.Funcs), "function index %d out of range (%d functions)"
	case opdHost:
		n, format = len(v.c.HostNames), "host index %d out of range (%d hosts)"
	case opdCount:
		// A count cannot exceed the instructions that could have pushed
		// its operands.
		if countFault != "" && (x < 0 || x > nCode) {
			return fmt.Sprintf(countFault, x)
		}
	case opdOperator:
		if !binOps[TokenKind(x)] {
			return fmt.Sprintf("invalid binary operator immediate %d", x)
		}
	case opdConstOp, opdLocalOp:
		idx, op := UnpackIdxOp(int32(x))
		return cmp.Or(v.operandFault(kind.index(), int(idx), nLocals, nCode, ""), v.operandFault(opdOperator, int(op), nLocals, nCode, ""))
	}
	if format != "" && (x < 0 || x >= n) {
		return fmt.Sprintf(format, x, n)
	}
	return ""
}

// checkBlock proves one code block over its graph g: every reachable
// instruction gets a unique entry stack depth, jumps stay inside
// [0, len(code)], and no instruction pops below empty. A work list of
// blocks carries each block's entry depth, which runs on through the
// block; an instruction too broken to interpret, or one that
// underflows, ends its block's exploration. Depth uniqueness at joins
// is what lets the VM skip per-step stack checks. The return value is
// the proven operand-stack high-water mark over all reachable paths
// (instructions pop before they push, so the depth after each
// instruction bounds the peak).
func (v *structVerifier) checkBlock(fn string, g *Graph, nLocals int) int {
	maxDepth, code, n := 0, g.Code, len(g.Blocks)
	if n == 0 {
		return 0
	}
	if cap(v.buf) < 2*n {
		v.buf = make([]int32, 2*n)
	}
	// Each block enters the work list once at most.
	depth, work := v.buf[:n], append(v.buf[n:n:2*n], 0)
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
blocks:
	for len(work) > 0 {
		b := &g.Blocks[work[len(work)-1]]
		d := int(depth[work[len(work)-1]])
		work = work[:len(work)-1]
		for ip := int(b.Start); ip < int(b.End); ip++ {
			in := code[ip]
			if !v.operandsOK(fn, ip, in, nLocals, len(code)) {
				continue blocks
			}
			pops := in.pops()
			if d < pops {
				v.fault(fn, ip, FaultStack, fmt.Sprintf("stack underflow: %s needs %d operands, depth is %d", in.Op, pops, d))
				continue blocks
			}
			d += int(opTable[in.Op].pushes) - pops
			maxDepth = max(maxDepth, d)
		}
		ip := int(b.End) - 1
		if _, jumps := OpcodeFlow(code[ip].Op); jumps && (code[ip].A < 0 || int(code[ip].A) > len(code)) {
			v.fault(fn, ip, FaultJump, fmt.Sprintf("jump target %d outside [0,%d]", code[ip].A, len(code)))
		}
		for _, to := range [2]int32{b.Succ[1], b.Succ[0]} {
			switch {
			case to < 0: // no edge, or the implicit return-nil epilogue, where any depth is fine
			case depth[to] == -1:
				depth[to] = int32(d)
				work = append(work, to)
			case int(depth[to]) != d:
				v.fault(fn, ip, FaultStack, fmt.Sprintf("stack depth mismatch at join %d (%d vs %d)", g.Blocks[to].Start, depth[to], d))
			}
		}
	}
	return maxDepth
}
