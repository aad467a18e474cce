package elastic

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/obs"
)

// DPI is a delegated program instance: one running activation of a DP,
// executing on its own goroutine inside the elastic process, with a
// mailbox for incoming messages and lifecycle control. Once it exits it
// is a record: what Info, Control and supervision read, and no machine,
// mailbox or program.
type DPI struct {
	ID    string
	Entry string

	proc    *Process
	vm      *dpl.VM
	ctrl    dpl.Control
	started time.Duration
	runCtx  context.Context
	cancel  context.CancelFunc
	done    chan struct{}

	// Multi-tenant state: the billing ledger, the run-slot flag, the
	// scheduler waiter it parks on for a slot and the steps billed so
	// far (all three touched only on the instance's own goroutine), the
	// rate-escalation count, and the throttled marker surfaced through
	// State.
	tenant           *Tenant
	principal        string
	slotted          bool
	waiter           *waiter
	billed           uint64
	quotaSuspensions int
	throttled        atomic.Bool

	// pending holds the events emitted since the last hand-off, in a
	// buffer borrowed from eventBufs until that hand-off (nil when
	// there are none); only the instance's own goroutine touches it.
	pending *[]Event

	// spec is the instantiation request this instance runs under; sup
	// (nil when unsupervised) applies its restart policy on exit.
	spec InstanceSpec
	sup  *supervisor
	// userKilled marks an operator terminate (Control/Terminate/Stop),
	// which is final even under RestartAlways.
	userKilled atomic.Bool
	// wdReason, when set, names the watchdog violation that killed the
	// run; the exit error becomes ErrWatchdogKilled.
	wdReason atomic.Pointer[string]

	mu       sync.Mutex
	finished bool
	crashed  bool
	result   any // a Go value, as VM.Run returns it
	err      error
	// mailbox is made by the first recv or Send and dropped at exit;
	// an instance that never receives never has one.
	mailbox chan string
}

// run executes the instance to completion. It always emits EventExit.
func (d *DPI) run(ctx context.Context, args []any) {
	defer d.proc.wg.Done()
	v, err := d.execScheduled(ctx, args)
	p := d.proc
	var pe *PanicError
	crashed := errors.As(err, &pe)
	if r := d.wdReason.Load(); r != nil {
		err = fmt.Errorf("%w: %s", ErrWatchdogKilled, *r)
	}
	// The record keeps what Info reads: the machine, its program and
	// the mailbox go. A message not yet received goes with the mailbox;
	// one sent from here on is refused.
	d.vm.Release()
	d.waiter = nil
	d.mu.Lock()
	d.finished = true
	d.crashed = crashed
	d.result = v
	d.err = err
	d.mailbox = nil
	d.mu.Unlock()
	// The one retention rule for finished records, applied here and
	// nowhere else: this exit takes the next slot of the finished ring
	// and the record that slot named (finishedKept exits ago) leaves
	// dpis. It happens before done closes, so whoever sees the exit also
	// sees the live slot it freed.
	p.mu.Lock()
	slot := &p.finished[p.nFinished%finishedKept]
	delete(p.dpis, *slot) // "" on the first lap, or already Removed: no-op
	*slot = d.ID
	p.nFinished++
	p.met.live.Add(-1)
	p.mu.Unlock()
	// Steps is exact once the run has ended; both ledgers take it
	// before done closes, so whoever sees the exit sees the bill.
	steps := d.vm.Steps()
	p.met.stepsConsumed.Add(steps)
	if d.tenant != nil {
		d.tenant.stepsTotal.Add(steps - d.billed) // the tail after the last tick
		d.tenant.live.Add(-1)
	}
	// The exit event joins the last batch, and it, its counters and
	// spans come before done closes: whoever returns from Wait sees the
	// exit counted. The hand-off is synchronous, and the RDS subscriber
	// only enqueues, so Wait waits for the fan-out, not for any consumer
	// of it.
	payload := dpl.Format(v)
	if err != nil {
		payload = "error: " + err.Error()
	}
	elapsed := p.clock.Now() - d.started
	p.met.runLat.Observe(elapsed)
	if crashed {
		p.met.panics.Inc()
		p.tracer.Record(d.ID, obs.StageCrash, pe.Error(), elapsed)
	}
	p.tracer.Record(d.ID, obs.StageExit, payload, elapsed)
	d.emit(EventExit, payload)
	d.handOff()
	close(d.done)
	if d.sup != nil {
		// Runs before this goroutine's wg slot releases, so restart
		// timers register with the WaitGroup race-free against Stop.
		d.sup.onExit(d, err)
	}
}

// emit buffers one event, handing the buffer off once it holds
// MaxEventBatch events.
func (d *DPI) emit(kind EventKind, payload string) {
	if d.pending == nil {
		d.pending = eventBufs.Get().(*[]Event)
	}
	*d.pending = append(*d.pending, Event{DPI: d.ID, Kind: kind, Payload: payload, Time: d.proc.clock.Now(), Principal: d.principal})
	if len(*d.pending) >= MaxEventBatch {
		d.handOff()
	}
}

// handOff delivers the buffered events to the subscribers as one batch.
// It runs wherever the instance stops running — its scheduling tick,
// every unslotted block (a recv, a sleep, a quota pause, a suspension)
// and exit — and before it messages another instance, so subscribers
// see its events before anything they cause.
func (d *DPI) handOff() {
	if d.pending != nil {
		d.proc.fanOut(d.pending)
		d.pending = nil
	}
}

// exec runs the VM under recover: a panic anywhere in the DP body (or a
// host function it calls) becomes a *PanicError exit instead of tearing
// the whole elastic process down.
func (d *DPI) exec(ctx context.Context, args []any) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return d.vm.Run(ctx, d.Entry, args...)
}

// execScheduled runs exec under a run slot when the process schedules
// DPI execution. The slot is acquired before the first VM step and
// released on exit; schedTick rotates it per quantum in between.
func (d *DPI) execScheduled(ctx context.Context, args []any) (any, error) {
	if s := d.proc.sched; s != nil {
		if err := s.acquire(ctx, d); err != nil {
			return nil, err
		}
		defer func() {
			if d.slotted {
				s.release(d)
			}
		}()
	}
	return d.exec(ctx, args)
}

// Done returns a channel closed when the instance finishes.
func (d *DPI) Done() <-chan struct{} { return d.done }

// Wait blocks until the instance finishes or ctx is done, returning the
// instance's result.
func (d *DPI) Wait(ctx context.Context) (any, error) {
	select {
	case <-d.done:
		return d.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Finished reports whether the instance has exited.
func (d *DPI) Finished() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.finished
}

// Result returns the instance's return value and error. Valid after
// Done is closed; before that it returns nils.
func (d *DPI) Result() (any, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.result, d.err
}

// Terminate kills the instance: it cancels the context (unblocking any
// sleep or recv) and flips the control gate. An operator terminate is
// final — the supervisor will not restart the instance, whatever its
// policy. For a supervised instance the whole lineage ends: terminating
// any incarnation (even one that already exited) stops further
// restarts, so a fast-cycling `always` DP need not be caught mid-run.
func (d *DPI) Terminate() {
	d.userKilled.Store(true)
	if d.sup != nil {
		d.sup.killed.Store(true)
	}
	d.ctrl.Terminate()
	d.cancel()
}

// Steps returns the instance's executed VM instruction count.
func (d *DPI) Steps() uint64 { return d.vm.Steps() }

func (d *DPI) info() Info {
	d.mu.Lock()
	defer d.mu.Unlock()
	inf := Info{
		ID:      d.ID,
		DP:      d.spec.DP,
		Entry:   d.Entry,
		Steps:   d.vm.Steps(),
		Started: d.started,
	}
	if d.finished {
		switch {
		case d.crashed:
			inf.State = "crashed"
			inf.Err = d.err.Error()
		case d.err != nil:
			inf.State = "failed"
			inf.Err = d.err.Error()
		default:
			inf.State = "exited"
			inf.Result = dpl.Format(d.result)
		}
	} else if d.throttled.Load() {
		inf.State = "throttled"
	} else {
		inf.State = d.ctrl.State()
	}
	return inf
}

// inbox returns the instance's mailbox, making it on first use. Only
// the running instance asks, so it is never finished here.
func (d *DPI) inbox() chan string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mailboxLocked()
}

// mailboxLocked returns the mailbox, making it on first use. d.mu must
// be held.
func (d *DPI) mailboxLocked() chan string {
	if d.mailbox == nil {
		d.mailbox = make(chan string, d.proc.cfg.MailboxDepth)
	}
	return d.mailbox
}

// deliver queues payload in the mailbox without blocking. It decides
// under the instance's lock, where exit drops the mailbox, so a message
// is either queued before the exit or refused after it.
func (d *DPI) deliver(payload string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.finished {
		return fmt.Errorf("%w: %s", ErrExited, d.ID)
	}
	select {
	case d.mailboxLocked() <- payload:
		d.proc.met.messagesSent.Inc()
		return nil
	default:
		return fmt.Errorf("%w: %s", ErrMailboxFull, d.ID)
	}
}

// dpiOf extracts the DPI handle a VM carries; host functions use it to
// reach mailbox, clock and event services.
func dpiOf(env *dpl.Env) (*DPI, error) {
	if env == nil || env.VM == nil {
		return nil, fmt.Errorf("elastic: host function called outside a DPI")
	}
	d, ok := env.VM.Meta.(*DPI)
	if !ok {
		return nil, fmt.Errorf("elastic: host function called outside a DPI")
	}
	return d, nil
}

// registerInstanceServices installs the host functions every DPI gets
// from its elastic process:
//
//	sleep(ms)        pause on the process clock (suspend/terminate aware)
//	now()            process-clock milliseconds
//	recv(timeoutMs)  next mailbox message, or nil on timeout; -1 blocks
//	report(v)        emit a report event
//	notify(v)        emit a notification (exception) event
//	log(v)           emit a log event
//	dpiid()          this instance's id
func (p *Process) registerInstanceServices() {
	p.bindings.Register("sleep", 1, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		d, err := dpiOf(env)
		if err != nil {
			return dpl.Value{}, err
		}
		ms, ok := args[0].AsInt()
		if !ok {
			return dpl.Value{}, fmt.Errorf("elastic: sleep(ms) wants int, got %s", dpl.TypeName(args[0]))
		}
		err = d.unslotted(func() error {
			return p.clock.Sleep(env.VM.Context(), time.Duration(ms)*time.Millisecond)
		})
		if err != nil {
			return dpl.Value{}, err
		}
		// Honor a suspension that engaged while sleeping.
		return dpl.Value{}, env.VM.Gate()
	})
	p.bindings.Register("now", 0, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		return dpl.Int(p.clock.Now().Milliseconds()), nil
	})
	p.bindings.Register("recv", 1, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		d, err := dpiOf(env)
		if err != nil {
			return dpl.Value{}, err
		}
		ms, ok := args[0].AsInt()
		if !ok {
			return dpl.Value{}, fmt.Errorf("elastic: recv(timeoutMs) wants int, got %s", dpl.TypeName(args[0]))
		}
		ctx := env.VM.Context()
		mailbox := d.inbox()
		// Fast path: message already queued.
		select {
		case m := <-mailbox:
			return dpl.Str(m), nil
		default:
		}
		if ms == 0 {
			return dpl.Value{}, nil
		}
		var timeout <-chan struct{}
		if ms > 0 {
			ch := make(chan struct{})
			go func() {
				// Error (cancellation) and expiry both just close ch;
				// the outer select already watches ctx.
				_ = p.clock.Sleep(ctx, time.Duration(ms)*time.Millisecond)
				close(ch)
			}()
			timeout = ch
		}
		var msg dpl.Value
		err = d.unslotted(func() error {
			select {
			case m := <-mailbox:
				msg = dpl.Str(m)
				return nil
			case <-timeout:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		return msg, err
	})
	emit := func(kind EventKind) dpl.HostFunc {
		return func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
			d, err := dpiOf(env)
			if err != nil {
				return dpl.Value{}, err
			}
			if err := d.billEvent(); err != nil {
				return dpl.Value{}, err
			}
			d.emit(kind, dpl.FormatValue(args[0]))
			return dpl.Value{}, nil
		}
	}
	p.bindings.Register("report", 1, emit(EventReport))
	p.bindings.Register("notify", 1, emit(EventNotify))
	p.bindings.Register("log", 1, emit(EventLog))
	p.bindings.Register("dpiid", 0, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		d, err := dpiOf(env)
		if err != nil {
			return dpl.Value{}, err
		}
		return dpl.Str(d.ID), nil
	})
	// sendto(dpiID, payload): intra-process DPI-to-DPI messaging ("the
	// other dpis use rds to communicate between themselves"). Returns
	// true on delivery, false when the target is unknown, finished, or
	// its mailbox is full.
	p.bindings.Register("sendto", 2, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		d, err := dpiOf(env)
		if err != nil {
			return dpl.Value{}, err
		}
		id, ok1 := args[0].AsString()
		payload, ok2 := args[1].AsString()
		if !ok1 || !ok2 {
			return dpl.Value{}, fmt.Errorf("elastic: sendto(dpiID, payload) wants strings")
		}
		d.handOff()
		target, ok := p.Lookup(id)
		return dpl.Bool(ok && target.deliver(payload) == nil), nil
	})
}
