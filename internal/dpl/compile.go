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
)

// OpcodeVersion reports the compiler generation that introduced op.
// Receivers use it to refuse artifacts whose claimed Version predates
// opcodes they contain (a version-skew lie; see verify.Verify).
func OpcodeVersion(op Opcode) int {
	if op >= OpLoadLConstBin && op <= OpDecL {
		return 3
	}
	return 1
}

// PackIdxOp packs a constant-pool or local index together with a binary
// operator into one superinstruction operand. TokenKind fits in eight
// bits, so the index occupies the rest of the int.
func PackIdxOp(idx int, op TokenKind) int { return idx<<8 | int(op) }

// UnpackIdxOp reverses PackIdxOp.
func UnpackIdxOp(v int) (idx int, op TokenKind) { return v >> 8, TokenKind(v & 0xff) }

// Instr is one VM instruction.
type Instr struct {
	Op   Opcode
	A, B int
}

// CompiledFunc is one compiled DPL function.
type CompiledFunc struct {
	Name      string
	NumParams int
	NumLocals int
	Code      []Instr

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
	FuncIdx     map[string]int
	GlobalNames []string
	// InitCode runs once before the entry point to evaluate global
	// initializers (it stores into globals and ends with OpReturnNil).
	InitCode []Instr
	// HostNames maps host-call indices used by the code back to
	// function names; it pins the Bindings layout the program was
	// compiled against.
	HostNames []string

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

// Compile translates a checked program to bytecode. It runs Check first
// and returns its diagnostics joined, so callers get translation and
// compilation as the single Translator step the paper describes.
func Compile(prog *Program, bindings *Bindings) (*Compiled, error) {
	if errs := Check(prog, bindings); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("dpl: translation rejected:\n  %s", strings.Join(msgs, "\n  "))
	}
	c := &compiler{
		bindings: bindings,
		out: &Compiled{
			Funcs:       make([]*CompiledFunc, len(prog.Funcs)),
			FuncIdx:     make(map[string]int, len(prog.Funcs)),
			GlobalNames: make([]string, len(prog.Globals)),
			HostNames:   bindings.NamesByIndex(),
		},
		globalIdx: make(map[string]int, len(prog.Globals)),
	}
	for i, g := range prog.Globals {
		c.globalIdx[g.Name] = i
		c.out.GlobalNames[i] = g.Name
	}
	// Pre-register function slots so calls can be emitted in one pass.
	funcs := make([]CompiledFunc, len(prog.Funcs))
	nLocals := 0
	for i, f := range prog.Funcs {
		funcs[i] = CompiledFunc{Name: f.Name, NumParams: len(f.Params)}
		c.out.FuncIdx[f.Name] = i
		c.out.Funcs[i] = &funcs[i]
		// Few functions declare more than a variable per statement.
		nLocals = max(nLocals, len(f.Params)+len(f.Body.Stmts))
	}
	// Two passes, as an assembler makes them. The first only counts each
	// unit's instructions and literals (a unit is a function or, last,
	// the global initializers), so that the second writes all code into
	// one array and all constants into one pool, sized beforehand.
	sizes := make([]int, len(prog.Funcs)+1)
	total := 0
	fc := &funcCompiler{c: c, sizing: true, locals: make([]local, 0, nLocals)}
	for i := range sizes {
		fc.n = 0
		if err := c.compileUnit(fc, prog, i); err != nil {
			return nil, err
		}
		sizes[i] = fc.n
		total += fc.n
	}
	code := make([]Instr, total)
	c.out.Consts = make([]Value, 0, c.nLits)
	c.constIdx = make(map[Value]int, c.nLits)
	fc.sizing = false
	for i, n := range sizes {
		fc.code, fc.nLocals = code[:0:n], 0
		if err := c.compileUnit(fc, prog, i); err != nil {
			return nil, err
		}
		if i < len(funcs) {
			funcs[i].NumLocals, funcs[i].Code = fc.nLocals, fc.code
		} else {
			c.out.InitCode = fc.code
		}
		code = code[n:]
	}
	return c.out, nil
}

type compiler struct {
	bindings  *Bindings
	out       *Compiled
	globalIdx map[string]int
	constIdx  map[Value]int
	nLits     int // literals the sizing pass saw: the pool's largest size
}

type loopCtx struct {
	breakJumps []int
	contTarget int // -1 while unknown (for-loop post compiled later)
	contJumps  []int
}

type local struct {
	name string
	slot int
}

type funcCompiler struct {
	c       *compiler
	code    []Instr
	sizing  bool // the counting pass: emit adds to n and writes nothing
	n       int
	nLocals int
	// locals lists the variables in scope, innermost last (looked up
	// from the end); scopes holds len(locals) at each open scope's start.
	locals []local
	scopes []int
	loops  []*loopCtx
}

func (f *funcCompiler) emit(i Instr) int {
	if f.sizing {
		f.n++
		return f.n - 1
	}
	f.code = append(f.code, i)
	return len(f.code) - 1
}

// emitConst emits the push of a literal, interning its value in the
// pool. The sizing pass only counts it, and so boxes no Value.
func emitConst[T int64 | float64 | string](f *funcCompiler, lit T) {
	if f.sizing {
		f.c.nLits++
		f.n++
		return
	}
	c, v := f.c, Value(lit)
	i, ok := c.constIdx[v]
	if !ok {
		i = len(c.out.Consts)
		c.out.Consts = append(c.out.Consts, v)
		c.constIdx[v] = i
	}
	f.emit(Instr{Op: OpConst, A: i})
}

func (f *funcCompiler) patch(at, target int) {
	if !f.sizing {
		f.code[at].A = target
	}
}

func (f *funcCompiler) pushScope() { f.scopes = append(f.scopes, len(f.locals)) }
func (f *funcCompiler) popScope() {
	f.locals = f.locals[:f.scopes[len(f.scopes)-1]]
	f.scopes = f.scopes[:len(f.scopes)-1]
}

func (f *funcCompiler) declareLocal(name string) int {
	f.locals = append(f.locals, local{name, f.nLocals})
	f.nLocals++
	return f.nLocals - 1
}

func (f *funcCompiler) lookupLocal(name string) (int, bool) {
	for i := len(f.locals) - 1; i >= 0; i-- {
		if f.locals[i].name == name {
			return f.locals[i].slot, true
		}
	}
	return 0, false
}

// compileUnit compiles prog.Funcs[i] or, past the last function, the
// global initializers.
func (c *compiler) compileUnit(fc *funcCompiler, prog *Program, i int) error {
	if i == len(prog.Funcs) {
		for gi, g := range prog.Globals {
			if g.Init == nil {
				fc.emit(Instr{Op: OpNil})
			} else if err := fc.expr(g.Init); err != nil {
				return err
			}
			fc.emit(Instr{Op: OpStoreG, A: gi})
		}
		fc.emit(Instr{Op: OpReturnNil})
		return nil
	}
	fd := prog.Funcs[i]
	fc.pushScope()
	for _, p := range fd.Params {
		fc.declareLocal(p)
	}
	if err := fc.block(fd.Body); err != nil {
		return err
	}
	fc.emit(Instr{Op: OpReturnNil})
	fc.popScope()
	return nil
}

func (f *funcCompiler) block(b *Block) error {
	f.pushScope()
	defer f.popScope()
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
			if err := f.expr(n.Init); err != nil {
				return err
			}
		} else {
			f.emit(Instr{Op: OpNil})
		}
		idx := f.declareLocal(n.Name)
		f.emit(Instr{Op: OpStoreL, A: idx})
		return nil
	case *Block:
		return f.block(n)
	case *AssignStmt:
		return f.assign(n)
	case *IfStmt:
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
		f.emit(Instr{Op: OpJump, A: top})
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
		f.pushScope()
		defer f.popScope()
		if n.Init != nil {
			if err := f.stmt(n.Init); err != nil {
				return err
			}
		}
		top := len(f.code)
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
		f.emit(Instr{Op: OpJump, A: top})
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
	case *BreakStmt:
		if len(f.loops) == 0 {
			return errors.New("dpl: internal: break outside loop survived checking")
		}
		lc := f.loops[len(f.loops)-1]
		lc.breakJumps = append(lc.breakJumps, f.emit(Instr{Op: OpJump}))
		return nil
	case *ContinueStmt:
		if len(f.loops) == 0 {
			return errors.New("dpl: internal: continue outside loop survived checking")
		}
		lc := f.loops[len(f.loops)-1]
		if lc.contTarget >= 0 {
			f.emit(Instr{Op: OpJump, A: lc.contTarget})
		} else {
			lc.contJumps = append(lc.contJumps, f.emit(Instr{Op: OpJump}))
		}
		return nil
	case *ReturnStmt:
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
	switch t := n.Target.(type) {
	case *Ident:
		if n.Op != TokAssign {
			// x += v  ⇒  x = x + v
			if err := f.loadIdent(t); err != nil {
				return err
			}
			if err := f.expr(n.Value); err != nil {
				return err
			}
			op := TokPlus
			if n.Op == TokMinusAssign {
				op = TokMinus
			}
			f.emit(Instr{Op: OpBin, A: int(op)})
		} else if err := f.expr(n.Value); err != nil {
			return err
		}
		if idx, ok := f.lookupLocal(t.Name); ok {
			f.emit(Instr{Op: OpStoreL, A: idx})
		} else if gi, ok := f.c.globalIdx[t.Name]; ok {
			f.emit(Instr{Op: OpStoreG, A: gi})
		} else {
			return fmt.Errorf("dpl: internal: unresolved %q survived checking", t.Name)
		}
		return nil
	case *IndexExpr:
		if err := f.expr(t.X); err != nil {
			return err
		}
		if err := f.expr(t.I); err != nil {
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
	default:
		return errors.New("dpl: internal: bad assignment target survived checking")
	}
}

func (f *funcCompiler) loadIdent(t *Ident) error {
	if idx, ok := f.lookupLocal(t.Name); ok {
		f.emit(Instr{Op: OpLoadL, A: idx})
		return nil
	}
	if gi, ok := f.c.globalIdx[t.Name]; ok {
		f.emit(Instr{Op: OpLoadG, A: gi})
		return nil
	}
	return fmt.Errorf("dpl: internal: unresolved %q survived checking", t.Name)
}

func (f *funcCompiler) expr(e Expr) error {
	switch n := e.(type) {
	case *IntLit:
		emitConst(f, n.V)
	case *FloatLit:
		emitConst(f, n.V)
	case *StringLit:
		emitConst(f, n.V)
	case *BoolLit:
		if n.V {
			f.emit(Instr{Op: OpTrue})
		} else {
			f.emit(Instr{Op: OpFalse})
		}
	case *NilLit:
		f.emit(Instr{Op: OpNil})
	case *Ident:
		return f.loadIdent(n)
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
			if err := f.expr(n.L); err != nil {
				return err
			}
			if err := f.expr(n.R); err != nil {
				return err
			}
			f.emit(Instr{Op: OpBin, A: int(n.Op)})
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
		f.emit(Instr{Op: OpArray, A: len(n.Elems)})
	case *MapLit:
		for i := range n.Keys {
			if err := f.expr(n.Keys[i]); err != nil {
				return err
			}
			if err := f.expr(n.Vals[i]); err != nil {
				return err
			}
		}
		f.emit(Instr{Op: OpMap, A: len(n.Keys)})
	case *CallExpr:
		for _, a := range n.Args {
			if err := f.expr(a); err != nil {
				return err
			}
		}
		if fi, ok := f.c.out.FuncIdx[n.Name]; ok {
			f.emit(Instr{Op: OpCall, A: fi, B: len(n.Args)})
			return nil
		}
		hi, _, ok := f.c.bindings.Lookup(n.Name)
		if !ok {
			return fmt.Errorf("dpl: internal: unbound call %q survived checking", n.Name)
		}
		f.emit(Instr{Op: OpCallHost, A: hi, B: len(n.Args)})
	default:
		return fmt.Errorf("dpl: internal: unknown expression %T", e)
	}
	return nil
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
