package dpl

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Sentinel errors surfaced by VM execution.
var (
	// ErrTerminated reports that the instance was killed via Control.
	ErrTerminated = errors.New("dpl: instance terminated")
	// ErrStepQuota reports that the instance exceeded its CPU (step)
	// quota — the elastic process's "OS-enforced resource constraint".
	ErrStepQuota = errors.New("dpl: step quota exceeded")
	// ErrStackOverflow reports call recursion beyond the frame limit.
	ErrStackOverflow = errors.New("dpl: call stack overflow")
)

// controlState is the lifecycle state a Control gate enforces.
type controlState uint8

const (
	ctrlRunning controlState = iota
	ctrlSuspended
	ctrlTerminated
)

// Control provides the thread-control operations the paper gives a
// delegator over a DPI: suspend, resume, terminate. A VM checks its
// Control at instruction-batch boundaries, so control takes effect in
// bounded time even inside tight agent loops.
//
// The zero value is a running, usable Control.
type Control struct {
	mu     sync.Mutex
	state  controlState
	resume chan struct{}
	// park, when set, runs each wait of a suspended gate (see SetPark).
	park func(wait func() error) error
}

// SetPark makes park the way a suspended gate waits: the gate hands it
// the wait itself, and park runs it, so the embedding runtime can give
// up what the instance holds (a run slot, buffered output) for as long
// as it is suspended. Set it before the instance runs.
func (c *Control) SetPark(park func(wait func() error) error) { c.park = park }

// Suspend pauses the instance at the next gate. Idempotent.
func (c *Control) Suspend() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == ctrlRunning {
		c.state = ctrlSuspended
		c.resume = make(chan struct{})
	}
}

// Resume lets a suspended instance continue. Idempotent.
func (c *Control) Resume() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == ctrlSuspended {
		c.state = ctrlRunning
		close(c.resume)
		c.resume = nil
	}
}

// Terminate kills the instance at the next gate. Irreversible.
func (c *Control) Terminate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.state
	c.state = ctrlTerminated
	if prev == ctrlSuspended {
		close(c.resume)
		c.resume = nil
	}
}

// State reports the current state as a string (running / suspended /
// terminated), for status queries.
func (c *Control) State() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case ctrlSuspended:
		return "suspended"
	case ctrlTerminated:
		return "terminated"
	default:
		return "running"
	}
}

// gate blocks while suspended and returns ErrTerminated once
// terminated. ctx cancellation also unblocks it.
func (c *Control) gate(ctx context.Context) error {
	for {
		c.mu.Lock()
		switch c.state {
		case ctrlRunning:
			c.mu.Unlock()
			return nil
		case ctrlTerminated:
			c.mu.Unlock()
			return ErrTerminated
		default:
			ch := c.resume
			c.mu.Unlock()
			wait := func() error {
				select {
				case <-ch:
					return nil // re-check state
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			var err error
			if c.park != nil {
				err = c.park(wait)
			} else {
				err = wait()
			}
			if err != nil {
				return err
			}
		}
	}
}

// gateMask: the VM consults its Control every (gateMask+1) steps. Step
// accounting is batched: the dispatch loop counts in a local and
// publishes it to the shared atomic only where someone can be waiting
// on it — at each gate window (with the gate, yield and quota checks),
// when the run ends or fails, and when a host function is about to
// block (PublishSteps). Suspend/terminate/quota thus take effect within
// one gate window, Steps() lags a running DPI by less than one window,
// and it is exact once the DPI is parked or has exited.
const gateMask = 255

// frame is one suspended caller activation on the flat call stack.
type frame struct {
	fn   *CompiledFunc
	code []Instr
	ip   int
	base int
}

// VM executes a Compiled program. A VM is single-threaded; the elastic
// process runs each DPI's VM on its own goroutine.
type VM struct {
	prog     *Compiled
	bindings *Bindings
	ctrl     *Control
	maxSteps uint64
	steps    atomic.Uint64 // published count, read by other goroutines
	// n is the authoritative step count, owned by the VM's goroutine:
	// dispatch keeps it in a local and hands it over here for the
	// duration of a host call (and on exit), so PublishSteps and a
	// re-entrant Run see it without an atomic per call.
	n       uint64
	globals []Value
	ctx     context.Context

	// yield, when set, is invoked from tick once at least yieldEvery
	// steps have accumulated since the previous invocation, receiving
	// the consumed count. The embedding runtime uses it as its
	// scheduling tick (fair-share accounting, rate quotas); a non-nil
	// error aborts the run. Piggybacking on the gate boundary keeps the
	// dispatch loop itself untouched: the cost is one comparison per
	// gate window when a yield hook is installed, zero otherwise.
	yield      func(consumed uint64) error
	yieldEvery uint64
	lastYield  uint64

	// env is the reusable host-call environment; hostFns aliases the
	// bindings' resolved table so OpCallHost indexes it directly instead
	// of allocating an Env and re-checking through Bindings.Call.
	env     Env
	hostFns []binding

	// stack and frames form the flat execution machine, reused across
	// runs: one contiguous value array holds every activation's locals
	// and operand stack (frames are [base, base+NumLocals+maxStack)
	// windows sized from the verifier's proven high-water marks). exec
	// claims both by swapping nil in, so a host function that re-enters
	// Run on the same VM builds a fresh transient machine instead of
	// corrupting its caller's.
	stack  []Value
	frames []frame

	// Meta is an opaque attachment for the embedding runtime (the MbD
	// server hangs the DPI handle here so host functions can reach it).
	Meta any
}

// VMOption configures a VM.
type VMOption func(*VM)

// WithMaxSteps bounds total VM instruction count; 0 means unlimited.
func WithMaxSteps(n uint64) VMOption {
	return func(vm *VM) { vm.maxSteps = n }
}

// WithControl attaches an external Control (shared with the runtime's
// DPI handle).
func WithControl(c *Control) VMOption {
	return func(vm *VM) { vm.ctrl = c }
}

// WithYield installs fn as the VM's scheduling tick: it runs at the
// first gate boundary after every `every` executed steps (so at
// granularity max(every, gateMask+1)), receiving the steps consumed
// since the previous tick. Returning an error aborts the run with that
// error. every == 0 ticks at every gate boundary.
func WithYield(every uint64, fn func(consumed uint64) error) VMOption {
	return func(vm *VM) {
		vm.yield = fn
		vm.yieldEvery = every
	}
}

// NewVM prepares a VM for prog using the given host bindings. The
// bindings must be the same table the program was compiled against.
func NewVM(prog *Compiled, bindings *Bindings, opts ...VMOption) *VM {
	vm := &VM{
		prog:     prog,
		bindings: bindings,
		ctrl:     &Control{},
		globals:  make([]Value, len(prog.GlobalNames)),
	}
	vm.env.VM = vm
	for _, o := range opts {
		o(vm)
	}
	return vm
}

// Steps returns the number of instructions executed so far. It is safe
// to call from other goroutines (status queries, accounting). While the
// VM runs it may lag by less than one gate window; it is exact while a
// host function blocks after PublishSteps, and once the run has ended.
func (vm *VM) Steps() uint64 { return vm.steps.Load() }

// Release drops everything the VM holds for running — its machine,
// globals, program and bindings — once its last Run has returned, so
// that a finished instance keeps no more than its step count, which
// stays readable. It must run on the VM's goroutine, and no Run may
// follow it.
func (vm *VM) Release() {
	vm.prog, vm.bindings, vm.hostFns = nil, nil, nil
	vm.globals, vm.stack, vm.frames = nil, nil, nil
	vm.yield, vm.ctx, vm.Meta = nil, nil, nil
}

// PublishSteps makes Steps exact for the duration of the current host
// call. Host functions that block (receive, sleep, throttle pauses) call
// it first; it must run on the VM's own goroutine.
func (vm *VM) PublishSteps() { vm.steps.Store(vm.n) }

// Context returns the context of the current Run, for host functions
// that block (sleep, receive).
func (vm *VM) Context() context.Context {
	if vm.ctx == nil {
		return context.Background()
	}
	return vm.ctx
}

// Gate lets long-running host functions honor suspend/terminate midway.
// It publishes the step count first, since it may block.
func (vm *VM) Gate() error {
	vm.PublishSteps()
	return vm.ctrl.gate(vm.Context())
}

const maxFrames = 256

// Run executes the program's global initializers (once per VM) and then
// the named entry function with args, returning its value. Arguments and
// result are plain Go values (see FromGo), converted here and nowhere
// else.
func (vm *VM) Run(ctx context.Context, entry string, args ...any) (any, error) {
	// The dispatch loop does not bounds-check operands; refuse any
	// program that fails structural verification (cached after the
	// first Run).
	if err := vm.prog.EnsureStructure(); err != nil {
		return nil, err
	}
	prevCtx := vm.ctx
	vm.ctx = ctx
	defer func() { vm.ctx = prevCtx }()
	if vm.bindings != nil {
		vm.hostFns = vm.bindings.funcs
	}
	if vm.n == 0 {
		if init := vm.prog.initFunc(); init != nil {
			if _, err := vm.exec(init, nil); err != nil {
				return nil, fmt.Errorf("dpl: global initialization: %w", err)
			}
		}
	}
	fi, ok := vm.prog.FuncIndex(entry)
	if !ok {
		return nil, fmt.Errorf("dpl: no entry function %q", entry)
	}
	fn := vm.prog.Funcs[fi]
	if len(args) != fn.NumParams {
		return nil, fmt.Errorf("dpl: entry %q expects %d arguments, got %d", entry, fn.NumParams, len(args))
	}
	return vm.exec(fn, args)
}

// exec runs one entry activation on the VM's flat machine. It claims
// the reused stack/frame arrays (a re-entrant Run from a host function
// finds nil and allocates transient ones), sizes the entry frame from
// the verifier's bound, converts args into it, and releases the —
// possibly grown — machine for the next run. The release also drops
// every value reference the run left behind, so a parked VM does not
// pin results.
func (vm *VM) exec(fn *CompiledFunc, args []any) (v any, err error) {
	stack, frames := vm.stack, vm.frames
	vm.stack, vm.frames = nil, nil
	if need := fn.NumLocals + fn.maxStack; cap(stack) < need {
		stack = make([]Value, need)
	} else {
		stack = stack[:cap(stack)]
	}
	clear(stack[:fn.NumLocals])
	for i := 0; i < len(args) && err == nil; i++ {
		stack[i], err = FromGo(args[i])
	}
	if err == nil {
		var rv Value
		rv, stack, frames, err = vm.dispatch(fn, stack, frames[:0])
		v = ToGo(rv)
	}
	clear(stack)
	vm.stack, vm.frames = stack, frames[:0]
	return v, err
}

// growValueStack returns a larger stack with the old contents; kept out
// of the dispatch loop so the hot path stays allocation-free.
func growValueStack(stack []Value, need int) []Value {
	ns := make([]Value, need+need/2)
	copy(ns, stack)
	return ns
}

// tick publishes n at a gate-window boundary and runs the gate, yield
// and quota checks due there. Quota may be detected up to one gate
// window late — the documented tolerance that buys batched accounting.
func (vm *VM) tick(n uint64) error {
	vm.n = n
	vm.steps.Store(n)
	if err := vm.ctrl.gate(vm.Context()); err != nil {
		return err
	}
	if vm.yield != nil && n-vm.lastYield >= vm.yieldEvery {
		consumed := n - vm.lastYield
		vm.lastYield = n
		if err := vm.yield(consumed); err != nil {
			return err
		}
	}
	if vm.maxSteps > 0 && n > vm.maxSteps {
		return ErrStepQuota
	}
	return nil
}

// binEval applies one OpBin-class operator. Two ints take a fast path
// that agrees with Binary exactly and leaves zero divisors to it, so the
// error text is Binary's; every other operand pair goes to Binary.
func binEval(op TokenKind, l, r Value) (Value, error) {
	if l.k == KindInt && r.k == KindInt {
		x, y := l.int(), r.int()
		switch op {
		case TokPlus:
			return Int(x + y), nil
		case TokMinus:
			return Int(x - y), nil
		case TokStar:
			return Int(x * y), nil
		case TokLt:
			return Bool(x < y), nil
		case TokLe:
			return Bool(x <= y), nil
		case TokGt:
			return Bool(x > y), nil
		case TokGe:
			return Bool(x >= y), nil
		case TokSlash:
			if y != 0 {
				return Int(x / y), nil
			}
		case TokPercent:
			if y != 0 {
				return Int(x % y), nil
			}
		}
	}
	return Binary(op, l, r)
}

// addChain ends a + chain (OpAddN) whose operands ADDC left in slots:
// either every operand so far was a string, each still in its slot, or
// the last two slots hold the left sum and the last operand. The last
// pair is checked as BIN + checks it; a pair of strings joins every
// slot in one allocation. Each slot's kind is checked before its bytes
// are read, so code that did not come from the compiler cannot make it
// read a non-string as one.
func addChain(slots []Value) (Value, error) {
	l, r := slots[len(slots)-2], slots[len(slots)-1]
	if l.k != KindString || r.k != KindString {
		return binEval(TokPlus, l, r)
	}
	n := 0
	for _, s := range slots {
		if s.k != KindString {
			return Value{}, rtErrf("cannot add %s and string", TypeName(s))
		}
		n += int(s.n)
	}
	var b strings.Builder
	b.Grow(n)
	for _, s := range slots {
		b.WriteString(s.str())
	}
	return Str(b.String()), nil
}

// dispatch is the flat-frame execution loop. Every activation lives in
// one contiguous stack: locals at [base, base+NumLocals), operand stack
// growing from there to at most base+NumLocals+maxStack (the verifier's
// proven bound, so no per-push growth checks). OpCall pushes the caller
// onto frames and re-bases in place — the arguments the caller pushed
// *are* the callee's first locals, no copy. OpCallHost passes a
// capped subslice of the live stack for the same reason. The returned
// stack/frames are the (possibly grown) arrays for exec to recycle.
//
// mbd:hotloop — vet-mbd forbids heap allocations and closure captures
// in this function; intentional amortized growth carries an
// mbd:alloc-ok marker.
func (vm *VM) dispatch(fn *CompiledFunc, stack []Value, frames []frame) (Value, []Value, []frame, error) {
	var (
		code     = fn.Code
		ip       = 0
		base     = 0
		sp       = fn.NumLocals
		n        = vm.n // steps so far; published by tick and on exit
		nextGate = (n | gateMask) + 1
		rv       Value
		null     Value // the nil Value: OpNil and the return-nil paths
		in       Instr
		a, b     int // in's operands
		err      error
	)
	for {
		if ip >= len(code) {
			rv = null // implicit return-nil epilogue
			goto ret
		}
		in = code[ip]
		a, b = int(in.A), int(in.B)
		ip++
		n++
		if n >= nextGate {
			if err = vm.tick(n); err != nil {
				goto fail
			}
			nextGate = (n | gateMask) + 1 // realigns after a re-entrant Run
		}
		switch in.Op {
		case OpConst:
			stack[sp] = vm.prog.Consts[a]
			sp++
		case OpNil:
			stack[sp] = null
			sp++
		case OpTrue:
			stack[sp] = Bool(true)
			sp++
		case OpFalse:
			stack[sp] = Bool(false)
			sp++
		case OpLoadG:
			stack[sp] = vm.globals[a]
			sp++
		case OpStoreG:
			sp--
			vm.globals[a] = stack[sp]
		case OpLoadL:
			stack[sp] = stack[base+a]
			sp++
		case OpStoreL:
			sp--
			stack[base+a] = stack[sp]
		case OpPop:
			sp--
		case OpBin:
			sp -= 2
			var v Value
			v, err = binEval(TokenKind(a), stack[sp], stack[sp+1])
			if err != nil {
				goto fail
			}
			stack[sp] = v
			sp++
		case OpEq:
			sp--
			stack[sp-1] = Bool(valueEqual(stack[sp-1], stack[sp]))
		case OpNe:
			sp--
			stack[sp-1] = Bool(!valueEqual(stack[sp-1], stack[sp]))
		case OpNeg:
			if stack[sp-1], err = Negate(stack[sp-1]); err != nil {
				goto fail
			}
		case OpNot:
			stack[sp-1] = Bool(!Truthy(stack[sp-1]))
		case OpJump:
			ip = a
		case OpJumpFalse:
			sp--
			if !Truthy(stack[sp]) {
				ip = a
			}
		case OpJFKeep:
			if !Truthy(stack[sp-1]) {
				ip = a
			}
		case OpJTKeep:
			if Truthy(stack[sp-1]) {
				ip = a
			}
		case OpCall:
			if len(frames) >= maxFrames-1 {
				err = ErrStackOverflow
				goto fail
			}
			frames = append(frames, frame{fn: fn, code: code, ip: ip, base: base}) //mbd:alloc-ok — amortized: capacity persists across runs
			fn = vm.prog.Funcs[a]
			base = sp - b
			if need := base + fn.NumLocals + fn.maxStack; need > len(stack) {
				stack = growValueStack(stack, need)
			}
			clear(stack[base+b : base+fn.NumLocals])
			sp = base + fn.NumLocals
			code = fn.Code
			ip = 0
		case OpCallHost:
			if a >= len(vm.hostFns) {
				err = rtErrf("host function index %d out of range", a)
				goto fail
			}
			hf := &vm.hostFns[a]
			if hf.arity >= 0 && hf.arity != b {
				err = rtErrf("%s expects %d arguments, got %d", hf.name, hf.arity, b)
				goto fail
			}
			// The count rides in vm.n across the call: a blocking host
			// function publishes it, a re-entrant Run continues it.
			var v Value
			vm.n = n
			v, err = hf.fn(&vm.env, stack[sp-b:sp:sp])
			n = vm.n
			if err != nil {
				goto fail
			}
			sp -= b
			stack[sp] = v
			sp++
		case OpReturn:
			sp--
			rv = stack[sp]
			goto ret
		case OpReturnNil:
			rv = null
			goto ret
		case OpIndex:
			sp--
			var v Value
			v, err = indexValue(stack[sp-1], stack[sp])
			if err != nil {
				goto fail
			}
			stack[sp-1] = v
		case OpSetIndex:
			sp -= 3
			if err = setIndex(stack[sp], stack[sp+1], stack[sp+2]); err != nil {
				goto fail
			}
		case OpArray:
			arr := &Array{Elems: make([]Value, a)} //mbd:alloc-ok — the program constructs a value
			sp -= a
			copy(arr.Elems, stack[sp:sp+a])
			stack[sp] = ArrayValue(arr)
			sp++
		case OpMap:
			m := NewMap()
			sp -= a * 2
			for i := 0; i < a; i++ {
				if k := stack[sp+2*i]; k.k == KindString {
					m.M[k.str()] = stack[sp+2*i+1]
				} else {
					err = rtErrf("map key must be string, got %s", TypeName(k))
					goto fail
				}
			}
			stack[sp] = MapValue(m)
			sp++
		case OpLoadLConstBin:
			var v Value
			v, err = binEval(TokenKind(b&0xff), stack[base+a], vm.prog.Consts[b>>8])
			if err != nil {
				goto fail
			}
			stack[sp] = v
			sp++
		case OpLoadLLoadLBin:
			var v Value
			v, err = binEval(TokenKind(b&0xff), stack[base+a], stack[base+b>>8])
			if err != nil {
				goto fail
			}
			stack[sp] = v
			sp++
		case OpBinJumpFalse:
			sp -= 2
			var v Value
			v, err = binEval(TokenKind(b), stack[sp], stack[sp+1])
			if err != nil {
				goto fail
			}
			if !Truthy(v) {
				ip = a
			}
		case OpConstStoreL:
			stack[base+b] = vm.prog.Consts[a]
		case OpIncL:
			var v Value
			v, err = binEval(TokPlus, stack[base+a], vm.prog.Consts[b])
			if err != nil {
				goto fail
			}
			stack[base+a] = v
		case OpDecL:
			var v Value
			v, err = binEval(TokMinus, stack[base+a], vm.prog.Consts[b])
			if err != nil {
				goto fail
			}
			stack[base+a] = v
		case OpAddC:
			if l, r := stack[sp-2], stack[sp-1]; l.k != KindString || r.k != KindString {
				var v Value
				if v, err = binEval(TokPlus, l, r); err != nil {
					goto fail
				}
				stack[sp-2], stack[sp-1] = null, v
			}
		case OpAddN:
			var v Value
			if v, err = addChain(stack[sp-a : sp]); err != nil {
				goto fail
			}
			sp -= a
			stack[sp] = v
			sp++
		default:
			err = fmt.Errorf("dpl: unknown opcode %d", in.Op)
			goto fail
		}
		continue

	ret:
		// Function return: leave dispatch, publishing the exact count
		// and checking the quota a short run never reached a window
		// for, or pop the caller. The result lands where the callee's
		// frame began — exactly where the caller expects its one pushed
		// value.
		if len(frames) == 0 {
			vm.n = n
			vm.steps.Store(n)
			if vm.maxSteps > 0 && n > vm.maxSteps {
				return null, stack, frames, ErrStepQuota
			}
			return rv, stack, frames, nil
		}
		{
			fr := frames[len(frames)-1]
			frames = frames[:len(frames)-1]
			stack[base] = rv
			sp = base + 1
			fn, code, ip, base = fr.fn, fr.code, fr.ip, fr.base
		}
		continue

	fail:
		vm.n = n
		vm.steps.Store(n)
		return null, stack, frames, err
	}
}
