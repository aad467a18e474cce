package dpl

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Opcode enumerates the VM's instructions.
type Opcode uint8

// Instruction set of the DPL stack machine.
const (
	OpConst     Opcode = iota // push Consts[A]
	OpNil                     // push nil
	OpTrue                    // push true
	OpFalse                   // push false
	OpLoadG                   // push globals[A]
	OpStoreG                  // globals[A] = pop
	OpLoadL                   // push locals[A]
	OpStoreL                  // locals[A] = pop
	OpPop                     // discard top of stack
	OpBin                     // binary op; A = TokenKind of operator
	OpEq                      // push pop2 == pop1
	OpNe                      // push pop2 != pop1
	OpNeg                     // arithmetic negate
	OpNot                     // logical negate
	OpJump                    // ip = A
	OpJumpFalse               // pop; if !truthy → ip = A
	OpJFKeep                  // if !truthy(top) → ip = A (keep top)
	OpJTKeep                  // if truthy(top) → ip = A (keep top)
	OpCall                    // call Funcs[A] with B args
	OpCallHost                // call host binding A with B args
	OpReturn                  // return pop
	OpReturnNil               // return nil
	OpIndex                   // push pop2[pop1]
	OpSetIndex                // pop3[pop2] = pop1
	OpArray                   // build array from A stack values
	OpMap                     // build map from A key/value pairs

	// Superinstructions: fused forms of the dominant pairs and triples,
	// emitted only by the generation-3 fusion pass (see
	// fuseSuperinstructions in optimize.go). They are appended after the
	// generation-1 set so every older opcode keeps its wire value.
	// Operands that carry both a pool/local index and a binary operator
	// pack them as index<<8|op (see PackIdxOp).
	OpLoadLConstBin // push locals[A] <op> Consts[idx]; B = PackIdxOp(idx, op)
	OpLoadLLoadLBin // push locals[A] <op> locals[idx]; B = PackIdxOp(idx, op)
	OpBinJumpFalse  // v = pop2 <op> pop1; if !truthy(v) → ip = A; B = op
	OpConstStoreL   // locals[B] = Consts[A]
	OpIncL          // locals[A] = locals[A] + Consts[B]
	OpDecL          // locals[A] = locals[A] - Consts[B]

	// String chains (generation 4): a left-associative + chain of n ≥ 3
	// operands, one of them a string literal, compiles to ADDC after
	// each operand from the second through the next-to-last and ADDN n
	// after the last, so it still costs n-1 instructions. Each checks
	// its pair where BIN + would add it; a chain of strings stays on the
	// stack until ADDN builds the result in one allocation (see
	// addChain in vm.go).
	OpAddC // pair on top: two strings stay; any other pair → nil, l+r
	OpAddN // end an A-operand chain: push the last pair's sum or the A strings joined
)

// operand says what an instruction's A or B field holds.
type operand uint8

const (
	opdNone     operand = iota
	opdConst            // constant-pool index
	opdGlobal           // global index
	opdLocal            // frame slot
	opdFunc             // function index
	opdHost             // host-binding index
	opdTarget           // jump target in [0, len(code)]
	opdCount            // argument, element or pair count
	opdOperator         // binary operator (a TokenKind)
	opdConstOp          // PackIdxOp(constant index, operator)
	opdLocalOp          // PackIdxOp(frame slot, operator)
)

// index returns the kind of index a packed operand carries.
func (k operand) index() operand {
	if k == opdConstOp {
		return opdConst
	}
	return opdLocal
}

// flow says where control goes after an instruction.
type flow uint8

const (
	flowNext   flow = iota // to ip+1
	flowJump               // to A
	flowBranch             // to A or ip+1
	flowEnd                // out of the function
)

// Pop counts read from an operand: B call arguments, A array elements,
// 2A map keys and values.
const (
	popsB = -1 - iota
	popsA
	pops2A
)

// opInfo is one row of the opcode table: all the structural verifier,
// the abstract walker, the optimizer, the disassembler and the
// assembler know of an opcode but what it computes. count words the
// structural fault for an implausible opdCount operand not checked
// against a callee.
type opInfo struct {
	name         string
	gen          int8 // compiler generation that introduced the opcode
	a, b         operand
	pops, pushes int8
	flow         flow
	count        string
}

// opTable states each opcode's shape once, in opInfo's field order. A
// keep-form branch (JFK, JTK) peeks at its condition: it pops it and
// pushes it back. A byte outside the instruction set has an empty row.
var opTable = [256]opInfo{
	OpConst:         {"CONST", 1, opdConst, opdNone, 0, 1, flowNext, ""},
	OpNil:           {"NIL", 1, opdNone, opdNone, 0, 1, flowNext, ""},
	OpTrue:          {"TRUE", 1, opdNone, opdNone, 0, 1, flowNext, ""},
	OpFalse:         {"FALSE", 1, opdNone, opdNone, 0, 1, flowNext, ""},
	OpLoadG:         {"LOADG", 1, opdGlobal, opdNone, 0, 1, flowNext, ""},
	OpStoreG:        {"STOREG", 1, opdGlobal, opdNone, 1, 0, flowNext, ""},
	OpLoadL:         {"LOADL", 1, opdLocal, opdNone, 0, 1, flowNext, ""},
	OpStoreL:        {"STOREL", 1, opdLocal, opdNone, 1, 0, flowNext, ""},
	OpPop:           {"POP", 1, opdNone, opdNone, 1, 0, flowNext, ""},
	OpBin:           {"BIN", 1, opdOperator, opdNone, 2, 1, flowNext, ""},
	OpEq:            {"EQ", 1, opdNone, opdNone, 2, 1, flowNext, ""},
	OpNe:            {"NE", 1, opdNone, opdNone, 2, 1, flowNext, ""},
	OpNeg:           {"NEG", 1, opdNone, opdNone, 1, 1, flowNext, ""},
	OpNot:           {"NOT", 1, opdNone, opdNone, 1, 1, flowNext, ""},
	OpJump:          {"JUMP", 1, opdTarget, opdNone, 0, 0, flowJump, ""},
	OpJumpFalse:     {"JF", 1, opdTarget, opdNone, 1, 0, flowBranch, ""},
	OpJFKeep:        {"JFK", 1, opdTarget, opdNone, 1, 1, flowBranch, ""},
	OpJTKeep:        {"JTK", 1, opdTarget, opdNone, 1, 1, flowBranch, ""},
	OpCall:          {"CALL", 1, opdFunc, opdCount, popsB, 1, flowNext, ""},
	OpCallHost:      {"CALLH", 1, opdHost, opdCount, popsB, 1, flowNext, "host call passes implausible %d args"},
	OpReturn:        {"RET", 1, opdNone, opdNone, 1, 0, flowEnd, ""},
	OpReturnNil:     {"RETNIL", 1, opdNone, opdNone, 0, 0, flowEnd, ""},
	OpIndex:         {"INDEX", 1, opdNone, opdNone, 2, 1, flowNext, ""},
	OpSetIndex:      {"SETIDX", 1, opdNone, opdNone, 3, 0, flowNext, ""},
	OpArray:         {"ARRAY", 1, opdCount, opdNone, popsA, 1, flowNext, "array of implausible %d elements"},
	OpMap:           {"MAP", 1, opdCount, opdNone, pops2A, 1, flowNext, "map of implausible %d pairs"},
	OpLoadLConstBin: {"LLCB", 3, opdLocal, opdConstOp, 0, 1, flowNext, ""},
	OpLoadLLoadLBin: {"LLLB", 3, opdLocal, opdLocalOp, 0, 1, flowNext, ""},
	OpBinJumpFalse:  {"BJF", 3, opdTarget, opdOperator, 2, 0, flowBranch, ""},
	OpConstStoreL:   {"KSTL", 3, opdConst, opdLocal, 0, 0, flowNext, ""},
	OpIncL:          {"INCL", 3, opdLocal, opdConst, 0, 0, flowNext, ""},
	OpDecL:          {"DECL", 3, opdLocal, opdConst, 0, 0, flowNext, ""},
	OpAddC:          {"ADDC", 4, opdNone, opdNone, 2, 2, flowNext, ""},
	OpAddN:          {"ADDN", 4, opdCount, opdNone, popsA, 1, flowNext, "chain of implausible %d operands"},
}

// String returns the opcode mnemonic.
func (op Opcode) String() string {
	if name := opTable[op].name; name != "" {
		return name
	}
	return fmt.Sprintf("OP(%d)", uint8(op))
}

// OpcodeVersion reports the compiler generation that introduced op.
// Receivers use it to refuse artifacts whose claimed Version predates
// opcodes they contain (a version-skew lie; see verify.Verify).
func OpcodeVersion(op Opcode) int {
	return max(int(opTable[op].gen), 1)
}

// OpcodeFlow reports whether control can fall through op to the next
// instruction and whether it can go to the target in A. An opcode that
// does neither leaves the function.
func OpcodeFlow(op Opcode) (falls, jumps bool) {
	f := opTable[op].flow
	return f == flowNext || f == flowBranch, f == flowJump || f == flowBranch
}

// pops returns how many operands in takes off the stack.
func (in Instr) pops() int {
	switch p := opTable[in.Op].pops; p {
	case popsB:
		return int(in.B)
	case popsA:
		return int(in.A)
	case pops2A:
		return 2 * int(in.A)
	default:
		return int(p)
	}
}

// target returns in's jump target when it has one inside [0, n].
func (in Instr) target(n int) (int, bool) {
	_, jumps := OpcodeFlow(in.Op)
	return int(in.A), jumps && in.A >= 0 && int(in.A) <= n
}

// maxPackedIdx bounds the index PackIdxOp packs: TokenKind takes the
// operand's low eight bits, and the index the 23 below its sign.
const maxPackedIdx = 1<<23 - 1

// PackIdxOp packs a constant-pool or local index together with a binary
// operator into one superinstruction operand, reporting false when idx
// does not fit beside the operator.
func PackIdxOp(idx int32, op TokenKind) (int32, bool) {
	if idx < 0 || idx > maxPackedIdx {
		return 0, false
	}
	return idx<<8 | int32(op), true
}

// UnpackIdxOp reverses PackIdxOp.
func UnpackIdxOp(v int32) (idx int32, op TokenKind) { return v >> 8, TokenKind(v & 0xff) }

// Instr is one VM instruction: 12 bytes, whose operands the wire
// format carries as INTEGERs and a decoder refuses past int32.
type Instr struct {
	Op   Opcode
	A, B int32
}

// CompiledFunc is one compiled DPL function.
type CompiledFunc struct {
	Name      string
	NumParams int
	NumLocals int
	Code      []Instr

	// marks is Code's share of the position table (see Compiled.Marks).
	marks []Mark

	// maxStack is the function's operand-stack high-water mark, proved
	// by the structural verifier (checkBlock) and populated by
	// VerifyStructure. The flat-frame VM sizes activation frames as
	// NumLocals+maxStack, so it is only meaningful after EnsureStructure
	// has succeeded — exactly the precondition for running the code.
	maxStack int
}

// Compiled is an executable delegated program: the "object code" the
// paper's Translator stores in the Repository.
type Compiled struct {
	Consts      []Value
	Funcs       []*CompiledFunc
	GlobalNames []string
	// InitCode runs once before the entry point to evaluate global
	// initializers (it stores into globals and ends with OpReturnNil).
	InitCode []Instr
	// HostNames maps host-call indices used by the code back to
	// function names; it pins the Bindings layout the program was
	// compiled against.
	HostNames []string
	// initMarks is InitCode's share of the position table.
	initMarks []Mark

	// Cached EnsureStructure outcome (see verifycode.go). Guarded by
	// vmu so concurrent DPIs sharing one Compiled verify it once.
	vmu   sync.Mutex
	vdone bool
	verr  error
	// initFn wraps InitCode as a synthetic function so the VM reuses
	// one frame descriptor (with its verified stack bound) instead of
	// building a fresh CompiledFunc per run. initMaxStack is recorded
	// by VerifyStructure alongside the per-function bounds.
	initFn       *CompiledFunc
	initMaxStack int
}

// initFunc returns the cached synthetic function wrapping InitCode, or
// nil when the program has no global initializers. Callers must have
// run EnsureStructure first: the frame size comes from the verifier.
func (c *Compiled) initFunc() *CompiledFunc {
	c.vmu.Lock()
	defer c.vmu.Unlock()
	if c.initFn == nil && len(c.InitCode) > 0 {
		c.initFn = &CompiledFunc{Name: "<init>", Code: c.InitCode, maxStack: c.initMaxStack}
	}
	return c.initFn
}

// FuncIndex returns the index in Funcs of the function named name. A
// run looks its entry up once, so a program keeps no map of its names.
func (c *Compiled) FuncIndex(name string) (int, bool) {
	for i, f := range c.Funcs {
		if f.Name == name {
			return i, true
		}
	}
	return 0, false
}

// Block returns the name, code and frame size of function fn, or of the
// global initializers when fn < 0.
func (c *Compiled) Block(fn int) (name string, code []Instr, nLocals int) {
	if fn < 0 {
		return "<init>", c.InitCode, 0
	}
	f := c.Funcs[fn]
	return f.Name, f.Code, f.NumLocals
}

// MarkKind says what a Mark records of its instruction: the kinds that
// start a statement come first, through MarkAssign. A while loop, and a
// for loop's test, start with MarkLoop instead.
type MarkKind uint8

const (
	MarkStmt   MarkKind = iota // a statement starts; an if with its test, at the test's position
	MarkDecl                   // a var declaration with an initializer starts
	MarkBare                   // a var declaration without one starts: its nil is no value the source assigned
	MarkAssign                 // an assignment to a variable starts
	MarkRead                   // the OpLoadL or OpLoadG reads a variable the source names, at the name
	MarkLoop                   // a loop's head, its test or, with none, its body, at the loop statement
	MarkCall                   // the OpCallHost is a call in the source
)

// Mark is one entry of the position table: the source position of
// what happens at instruction IP of its block.
type Mark struct {
	IP   int32
	Kind MarkKind
	Pos  Pos
}

// Marks returns the position table of Block(fn), in code order. Compile
// records it. Optimize keeps its loop heads and host calls, aligned: a
// call's mark moves with its instruction and a loop head's to where the
// loop's jumps land. It is not part of the artifact encoding, so code
// decoded or assembled has none.
func (c *Compiled) Marks(fn int) []Mark {
	if fn < 0 {
		return c.initMarks
	}
	return c.Funcs[fn].marks
}

// Compile translates a program to bytecode. It runs Check first (once
// per program and Bindings) and returns its diagnostics as an *Error, so
// callers get translation and compilation as the single Translator step
// the paper describes. The code reads the resolver's bindings: frame
// slots, global indices and call targets. It runs on the scratch prog
// was parsed in.
func Compile(prog *Program, bindings *Bindings) (*Compiled, error) {
	return prog.scratch().Compile(prog, bindings)
}

// Compile is the package-level Compile on s. The code is written into
// arrays of s, which the program keeps until Optimize copies its code
// out: a compile or a Clear before that leaves them to the program and
// makes s new ones.
func (s *Scratch) Compile(prog *Program, bindings *Bindings) (*Compiled, error) {
	if diags := s.check(prog, bindings); len(diags) > 0 {
		return nil, &Error{Diags: diags}
	}
	return s.lower(prog, bindings)
}

// Lower compiles prog on s whatever Check finds, which it returns, for
// the static analyzer, which reports on programs the Translator refuses:
// a name bound to nothing compiles to an out-of-range operand, and break
// or continue outside a loop to a return. Such code fails structural
// verification, so no VM runs it.
func (s *Scratch) Lower(prog *Program, bindings *Bindings) (*Compiled, []Diagnostic, error) {
	diags := s.check(prog, bindings)
	c, err := s.lower(prog, bindings)
	return c, diags, err
}

// lower compiles prog, checked against bindings.
func (s *Scratch) lower(prog *Program, bindings *Bindings) (*Compiled, error) {
	c := &compiler{
		out: &Compiled{
			Funcs:       make([]*CompiledFunc, len(prog.Funcs)),
			GlobalNames: make([]string, len(prog.Globals)),
			HostNames:   bindings.NamesByIndex(),
		},
	}
	for i, g := range prog.Globals {
		c.out.GlobalNames[i] = g.Name
	}
	// Pre-register function slots so calls can be emitted in one pass.
	funcs := make([]CompiledFunc, len(prog.Funcs))
	for i, f := range prog.Funcs {
		funcs[i] = CompiledFunc{Name: f.Name, NumParams: len(f.Params), NumLocals: len(f.Locals)}
		c.out.Funcs[i] = &funcs[i]
	}
	// Two passes, as an assembler makes them. The first only counts each
	// unit's instructions, marks and literals (a unit is a function or,
	// last, the global initializers), so that the second writes all code
	// into one array, the position table into another and all constants
	// into one pool, sized beforehand. Each unit's instructions and
	// marks are counted in sizes, on the stack for up to 7 functions.
	var small [8][2]int
	sizes := append(small[:0], make([][2]int, len(prog.Funcs)+1)...)
	total, totalMarks := 0, 0
	fc := &s.fc
	fc.reset(c)
	fc.sizing = true
	for i := range sizes {
		fc.n, fc.nMarks = 0, 0
		if err := c.compileUnit(fc, prog, i); err != nil {
			return nil, err
		}
		sizes[i] = [2]int{fc.n, fc.nMarks}
		total += fc.n
		totalMarks += fc.nMarks
	}
	code, marks, consts := s.lowering(c.out, total, totalMarks, c.nLits)
	c.out.Consts = consts
	c.pool = &s.pool
	c.pool.reset(c.out)
	fc.sizing = false
	for i, size := range sizes {
		n, nm := size[0], size[1]
		fc.code, fc.marks = code[:0:n], marks[:0:nm]
		if err := c.compileUnit(fc, prog, i); err != nil {
			return nil, err
		}
		if i < len(funcs) {
			funcs[i].Code, funcs[i].marks = fc.code, fc.marks
		} else {
			c.out.InitCode, c.out.initMarks = fc.code, fc.marks
		}
		code, marks = code[n:], marks[nm:]
	}
	c.out.ownText()
	return c.out, nil
}

// ownText copies the names and string constants the lexer sliced out
// of the source text into one string of the program's own, so that a
// stored program does not keep the whole text it was compiled from.
func (c *Compiled) ownText() {
	n := 0
	for _, v := range c.Consts {
		if v.k == KindString {
			n += int(v.n)
		}
	}
	for _, g := range c.GlobalNames {
		n += len(g)
	}
	for _, f := range c.Funcs {
		n += len(f.Name)
	}
	var b strings.Builder
	b.Grow(n)
	own := func(s string) string {
		b.WriteString(s)
		// b never grows past n, so its bytes stay where they are.
		return b.String()[b.Len()-len(s):]
	}
	for i, v := range c.Consts {
		if v.k == KindString {
			c.Consts[i] = Str(own(v.str()))
		}
	}
	for i, g := range c.GlobalNames {
		c.GlobalNames[i] = own(g)
	}
	for _, f := range c.Funcs {
		f.Name = own(f.Name)
	}
}

type compiler struct {
	out   *Compiled
	pool  *constPool
	nLits int // literals the sizing pass saw: the pool's largest size
}

type loopCtx struct {
	breakJumps []int
	contTarget int // -1 while unknown (for-loop post compiled later)
	contJumps  []int
}

type funcCompiler struct {
	c      *compiler
	code   []Instr
	marks  []Mark
	sizing bool // the counting pass: emit and mark add to n and nMarks and write nothing
	n      int
	nMarks int
	loops  []*loopCtx
	spine  []*BinaryExpr // the left spines of the operator chains being compiled
}

// reset readies f for the units of c, clearing it of the program
// before, and returns the bytes its stacks hold.
func (f *funcCompiler) reset(c *compiler) int {
	n := clearAll(f.loops) + clearAll(f.spine)
	*f = funcCompiler{c: c, loops: f.loops[:0], spine: f.spine[:0]}
	return n
}

func (f *funcCompiler) emit(i Instr) int {
	if f.sizing {
		f.n++
		return f.n - 1
	}
	f.code = append(f.code, i)
	return len(f.code) - 1
}

// mark records that the next instruction emitted does kind at pos.
func (f *funcCompiler) mark(kind MarkKind, pos Pos) {
	if f.sizing {
		f.nMarks++
		return
	}
	f.marks = append(f.marks, Mark{IP: int32(len(f.code)), Kind: kind, Pos: pos})
}

// emitConst emits the push of a literal, interning its value in the
// pool. The sizing pass only counts it.
func (f *funcCompiler) emitConst(v Value) {
	if f.sizing {
		f.c.nLits++
		f.n++
		return
	}
	f.emit(Instr{Op: OpConst, A: int32(f.c.pool.intern(v))})
}

// constKey identifies a constant-pool entry by kind, payload bits and
// string text, so -0.0 and 0.0 are two constants, as they are two values.
type constKey struct {
	k Kind
	n uint64
	s string
}

func keyOf(v Value) constKey {
	if s, ok := v.AsString(); ok {
		return constKey{k: KindString, s: s}
	}
	return constKey{k: v.k, n: v.n}
}

// constPool interns values into a Compiled's constant pool, for the
// compiler, the optimizer and the assembler alike.
type constPool struct {
	c     *Compiled
	idx   map[constKey]int // c.Consts' index, once ready
	ready bool             // the first intern builds idx, empty till then, from c.Consts
}

// reset readies p for c, clearing it of the program before, and returns
// the bytes its index holds.
func (p *constPool) reset(c *Compiled) int {
	n := len(p.idx) * mapEntry
	clear(p.idx)
	p.c, p.ready = c, false
	return n
}

func (p *constPool) intern(v Value) int {
	if !p.ready {
		if p.idx == nil {
			p.idx = make(map[constKey]int)
		}
		p.ready = true
		for i := len(p.c.Consts) - 1; i >= 0; i-- { // the first of duplicates wins
			p.idx[keyOf(p.c.Consts[i])] = i
		}
	}
	k := keyOf(v)
	i, ok := p.idx[k]
	if !ok {
		i = len(p.c.Consts)
		p.idx[k] = i
		p.c.Consts = append(p.c.Consts, v)
	}
	return i
}

func (f *funcCompiler) patch(at, target int) {
	if !f.sizing {
		f.code[at].A = int32(target)
	}
}

// compileUnit compiles prog.Funcs[i] or, past the last function, the
// global initializers.
func (c *compiler) compileUnit(fc *funcCompiler, prog *Program, i int) error {
	if i == len(prog.Funcs) {
		for gi, g := range prog.Globals {
			if g.Init == nil {
				fc.mark(MarkBare, g.Position())
				fc.emit(Instr{Op: OpNil})
			} else {
				fc.mark(MarkDecl, g.Position())
				if err := fc.expr(g.Init); err != nil {
					return err
				}
			}
			fc.emit(Instr{Op: OpStoreG, A: int32(gi)})
		}
		fc.emit(Instr{Op: OpReturnNil})
		return nil
	}
	body := prog.Funcs[i].Body.Stmts
	if err := fc.block(prog.Funcs[i].Body); err != nil {
		return err
	}
	// A body that ends in a return needs no return-nil epilogue: no
	// path reaches one, and the optimizer would only remove it.
	if n := len(body); n == 0 || !isReturn(body[n-1]) {
		fc.emit(Instr{Op: OpReturnNil})
	}
	return nil
}

func isReturn(s Stmt) bool {
	_, ok := s.(*ReturnStmt)
	return ok
}

func (f *funcCompiler) block(b *Block) error {
	for _, s := range b.Stmts {
		if err := f.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (f *funcCompiler) stmt(s Stmt) error {
	switch n := s.(type) {
	case *VarDecl:
		if n.Init != nil {
			f.mark(MarkDecl, n.Position())
			if err := f.expr(n.Init); err != nil {
				return err
			}
		} else {
			f.mark(MarkBare, n.Position())
			f.emit(Instr{Op: OpNil})
		}
		f.emit(Instr{Op: OpStoreL, A: int32(n.Slot)})
		return nil
	case *Block:
		return f.block(n)
	case *AssignStmt:
		kind := MarkAssign
		if _, ok := n.Target.(*Ident); !ok {
			kind = MarkStmt
		}
		f.mark(kind, n.Position())
		return f.assign(n)
	case *IfStmt:
		f.mark(MarkStmt, n.Cond.Position())
		if err := f.expr(n.Cond); err != nil {
			return err
		}
		jf := f.emit(Instr{Op: OpJumpFalse})
		if err := f.block(n.Then); err != nil {
			return err
		}
		if n.Else == nil {
			f.patch(jf, len(f.code))
			return nil
		}
		jend := f.emit(Instr{Op: OpJump})
		f.patch(jf, len(f.code))
		if err := f.stmt(n.Else); err != nil {
			return err
		}
		f.patch(jend, len(f.code))
		return nil
	case *WhileStmt:
		top := len(f.code)
		f.mark(MarkLoop, n.Position())
		if err := f.expr(n.Cond); err != nil {
			return err
		}
		jf := f.emit(Instr{Op: OpJumpFalse})
		lc := &loopCtx{contTarget: top}
		f.loops = append(f.loops, lc)
		if err := f.block(n.Body); err != nil {
			return err
		}
		f.loops = f.loops[:len(f.loops)-1]
		f.emit(Instr{Op: OpJump, A: int32(top)})
		end := len(f.code)
		f.patch(jf, end)
		for _, j := range lc.breakJumps {
			f.patch(j, end)
		}
		for _, j := range lc.contJumps {
			f.patch(j, top)
		}
		return nil
	case *ForStmt:
		if n.Init != nil {
			if err := f.stmt(n.Init); err != nil {
				return err
			}
		}
		top := len(f.code)
		f.mark(MarkLoop, n.Position())
		var jf int = -1
		if n.Cond != nil {
			if err := f.expr(n.Cond); err != nil {
				return err
			}
			jf = f.emit(Instr{Op: OpJumpFalse})
		}
		lc := &loopCtx{contTarget: -1}
		f.loops = append(f.loops, lc)
		if err := f.block(n.Body); err != nil {
			return err
		}
		f.loops = f.loops[:len(f.loops)-1]
		postStart := len(f.code)
		if n.Post != nil {
			if err := f.stmt(n.Post); err != nil {
				return err
			}
		}
		f.emit(Instr{Op: OpJump, A: int32(top)})
		end := len(f.code)
		if jf >= 0 {
			f.patch(jf, end)
		}
		for _, j := range lc.breakJumps {
			f.patch(j, end)
		}
		for _, j := range lc.contJumps {
			f.patch(j, postStart)
		}
		return nil
	case *BreakStmt, *ContinueStmt:
		f.mark(MarkStmt, s.Position())
		if len(f.loops) == 0 {
			f.emit(Instr{Op: OpReturnNil}) // only Lower compiles it
			return nil
		}
		lc := f.loops[len(f.loops)-1]
		if _, ok := s.(*BreakStmt); ok {
			lc.breakJumps = append(lc.breakJumps, f.emit(Instr{Op: OpJump}))
		} else if lc.contTarget >= 0 {
			f.emit(Instr{Op: OpJump, A: int32(lc.contTarget)})
		} else {
			lc.contJumps = append(lc.contJumps, f.emit(Instr{Op: OpJump}))
		}
		return nil
	case *ReturnStmt:
		f.mark(MarkStmt, n.Position())
		if n.Value == nil {
			f.emit(Instr{Op: OpReturnNil})
			return nil
		}
		if err := f.expr(n.Value); err != nil {
			return err
		}
		f.emit(Instr{Op: OpReturn})
		return nil
	case *ExprStmt:
		f.mark(MarkStmt, n.Position())
		if err := f.expr(n.X); err != nil {
			return err
		}
		f.emit(Instr{Op: OpPop})
		return nil
	default:
		return fmt.Errorf("dpl: internal: unknown statement %T", s)
	}
}

func (f *funcCompiler) assign(n *AssignStmt) error {
	t, ok := n.Target.(*Ident)
	if !ok {
		ix := n.Target.(*IndexExpr)
		if err := f.expr(ix.X); err != nil {
			return err
		}
		if err := f.expr(ix.I); err != nil {
			return err
		}
		if n.Op != TokAssign {
			return errors.New("dpl: += / -= not supported on index expressions")
		}
		if err := f.expr(n.Value); err != nil {
			return err
		}
		f.emit(Instr{Op: OpSetIndex})
		return nil
	}
	if n.Op != TokAssign {
		// x += v  ⇒  x = x + v
		f.loadIdent(t)
		if err := f.expr(n.Value); err != nil {
			return err
		}
		op := TokPlus
		if n.Op == TokMinusAssign {
			op = TokMinus
		}
		f.emit(Instr{Op: OpBin, A: int32(op)})
	} else if err := f.expr(n.Value); err != nil {
		return err
	}
	if t.Global {
		f.emit(Instr{Op: OpStoreG, A: int32(t.Slot)})
	} else {
		f.emit(Instr{Op: OpStoreL, A: int32(t.Slot)})
	}
	return nil
}

func (f *funcCompiler) loadIdent(t *Ident) {
	f.mark(MarkRead, t.Position())
	if t.Global {
		f.emit(Instr{Op: OpLoadG, A: int32(t.Slot)})
	} else {
		f.emit(Instr{Op: OpLoadL, A: int32(t.Slot)})
	}
}

func (f *funcCompiler) expr(e Expr) error {
	switch n := e.(type) {
	case *IntLit:
		f.emitConst(Int(n.V))
	case *FloatLit:
		f.emitConst(Float(n.V))
	case *StringLit:
		f.emitConst(Str(n.V))
	case *BoolLit:
		if n.V {
			f.emit(Instr{Op: OpTrue})
		} else {
			f.emit(Instr{Op: OpFalse})
		}
	case *NilLit:
		f.emit(Instr{Op: OpNil})
	case *Ident:
		f.loadIdent(n)
	case *UnaryExpr:
		if err := f.expr(n.X); err != nil {
			return err
		}
		if n.Op == TokMinus {
			f.emit(Instr{Op: OpNeg})
		} else {
			f.emit(Instr{Op: OpNot})
		}
	case *BinaryExpr:
		switch n.Op {
		case TokAndAnd:
			if err := f.expr(n.L); err != nil {
				return err
			}
			j := f.emit(Instr{Op: OpJFKeep})
			f.emit(Instr{Op: OpPop})
			if err := f.expr(n.R); err != nil {
				return err
			}
			f.patch(j, len(f.code))
		case TokOrOr:
			if err := f.expr(n.L); err != nil {
				return err
			}
			j := f.emit(Instr{Op: OpJTKeep})
			f.emit(Instr{Op: OpPop})
			if err := f.expr(n.R); err != nil {
				return err
			}
			f.patch(j, len(f.code))
		case TokEq, TokNe:
			if err := f.expr(n.L); err != nil {
				return err
			}
			if err := f.expr(n.R); err != nil {
				return err
			}
			if n.Op == TokEq {
				f.emit(Instr{Op: OpEq})
			} else {
				f.emit(Instr{Op: OpNe})
			}
		default:
			if k := chainLen(n); k >= 3 {
				return f.chain(n, k)
			}
			return f.pairwise(n)
		}
	case *IndexExpr:
		if err := f.expr(n.X); err != nil {
			return err
		}
		if err := f.expr(n.I); err != nil {
			return err
		}
		f.emit(Instr{Op: OpIndex})
	case *ArrayLit:
		for _, el := range n.Elems {
			if err := f.expr(el); err != nil {
				return err
			}
		}
		f.emit(Instr{Op: OpArray, A: int32(len(n.Elems))})
	case *MapLit:
		for i := range n.Keys {
			if err := f.expr(n.Keys[i]); err != nil {
				return err
			}
			if err := f.expr(n.Vals[i]); err != nil {
				return err
			}
		}
		f.emit(Instr{Op: OpMap, A: int32(len(n.Keys))})
	case *CallExpr:
		for _, a := range n.Args {
			if err := f.expr(a); err != nil {
				return err
			}
		}
		if n.Func >= 0 {
			f.emit(Instr{Op: OpCall, A: int32(n.Func), B: int32(len(n.Args))})
		} else {
			f.mark(MarkCall, n.Position())
			f.emit(Instr{Op: OpCallHost, A: int32(n.Host), B: int32(len(n.Args))})
		}
	default:
		return fmt.Errorf("dpl: internal: unknown expression %T", e)
	}
	return nil
}

// pairwise compiles e, an arithmetic or relational operator, as BIN over
// its operands. An operator chain nests to the left as deep as it is
// long, so the operators down its left spine that compile pairwise too
// join e's spine, walked in a loop. A + under a + is in a chain that
// chainLen counted below 3 at its head, and is not counted again, so a
// numeric chain compiles in one pass.
func (f *funcCompiler) pairwise(e *BinaryExpr) error {
	from := len(f.spine)
	for {
		f.spine = append(f.spine, e)
		l, ok := e.L.(*BinaryExpr)
		if !ok || l.Op == TokAndAnd || l.Op == TokOrOr || l.Op == TokEq || l.Op == TokNe ||
			l.Op == TokPlus && e.Op != TokPlus && chainLen(l) >= 3 {
			break
		}
		e = l
	}
	return f.spineOperands(from, func(b *BinaryExpr) Instr { return Instr{Op: OpBin, A: int32(b.Op)} })
}

// chainLen counts the operands of the left-associative + chain whose
// last + is e, when the chain may build a string, which the compiler
// sees as a string-literal operand. Any other expression counts 0 and
// compiles pairwise, keeping BIN + and its fusions for numeric chains.
func chainLen(e *BinaryExpr) int {
	k, lit := 1, false
	var x Expr = e
	for b, ok := e, true; ok && b.Op == TokPlus; b, ok = x.(*BinaryExpr) {
		_, s := b.R.(*StringLit)
		k, lit, x = k+1, lit || s, b.L
	}
	if _, s := x.(*StringLit); !lit && !s {
		return 0
	}
	return k
}

// chain compiles the n-operand + chain whose last + is e: each operand
// in source order, then ADDC after operands 2..n-1 and ADDN n after the
// last.
func (f *funcCompiler) chain(e *BinaryExpr, n int) error {
	from := len(f.spine)
	for k := n; ; k-- {
		f.spine = append(f.spine, e)
		if k == 2 {
			break
		}
		e = e.L.(*BinaryExpr)
	}
	return f.spineOperands(from, func(b *BinaryExpr) Instr {
		if b == f.spine[from] {
			return Instr{Op: OpAddN, A: int32(n)}
		}
		return Instr{Op: OpAddC}
	})
}

// spineOperands compiles the operands of the left spine f.spine[from:],
// outermost first, and pops it: the innermost operator's left operand,
// then each right operand from the innermost out, followed by the
// instruction op makes for its operator.
func (f *funcCompiler) spineOperands(from int, op func(*BinaryExpr) Instr) error {
	err := f.expr(f.spine[len(f.spine)-1].L)
	for i := len(f.spine) - 1; i >= from && err == nil; i-- {
		if err = f.expr(f.spine[i].R); err == nil {
			f.emit(op(f.spine[i]))
		}
	}
	clear(f.spine[from:])
	f.spine = f.spine[:from]
	return err
}

// MustCompile parses and compiles src, panicking on error. For tests
// and package-level agent constants.
func MustCompile(src string, bindings *Bindings) *Compiled {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	c, err := Compile(prog, bindings)
	if err != nil {
		panic(err)
	}
	return c
}
