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
// mailbox for incoming messages and lifecycle control.
type DPI struct {
	ID    string
	DP    *DP
	Entry string

	proc    *Process
	vm      *dpl.VM
	ctrl    *dpl.Control
	mailbox chan string
	started time.Duration
	runCtx  context.Context
	cancel  context.CancelFunc
	done    chan struct{}

	// Multi-tenant state: the billing ledger, the run-slot flag
	// (touched only on the instance's own goroutine), the
	// rate-escalation count, and the throttled marker surfaced through
	// State.
	tenant           *Tenant
	principal        string
	slotted          bool
	quotaSuspensions int
	throttled        atomic.Bool

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
	result   dpl.Value
	err      error
}

// run executes the instance to completion. It always emits EventExit.
func (d *DPI) run(ctx context.Context, args []dpl.Value) {
	defer d.proc.wg.Done()
	v, err := d.execScheduled(ctx, args)
	p := d.proc
	var pe *PanicError
	crashed := errors.As(err, &pe)
	if r := d.wdReason.Load(); r != nil {
		err = fmt.Errorf("%w: %s", ErrWatchdogKilled, *r)
	}
	d.mu.Lock()
	d.finished = true
	d.crashed = crashed
	d.result = v
	d.err = err
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
	if d.tenant != nil {
		d.tenant.live.Add(-1)
	}
	close(d.done)
	payload := dpl.FormatValue(v)
	if err != nil {
		payload = "error: " + err.Error()
	}
	elapsed := p.clock.Now() - d.started
	p.met.stepsConsumed.Add(d.vm.Steps())
	p.met.runLat.Observe(elapsed)
	if crashed {
		p.met.panics.Inc()
		p.tracer.Record(d.ID, obs.StageCrash, pe.Error(), elapsed)
	}
	p.tracer.Record(d.ID, obs.StageExit, payload, elapsed)
	p.emit(Event{DPI: d.ID, Kind: EventExit, Payload: payload, Time: p.clock.Now(), Principal: d.principal})
	if d.sup != nil {
		// Runs before this goroutine's wg slot releases, so restart
		// timers register with the WaitGroup race-free against Stop.
		d.sup.onExit(d, err)
	}
}

// exec runs the VM under recover: a panic anywhere in the DP body (or a
// host function it calls) becomes a *PanicError exit instead of tearing
// the whole elastic process down.
func (d *DPI) exec(ctx context.Context, args []dpl.Value) (v dpl.Value, err error) {
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
func (d *DPI) execScheduled(ctx context.Context, args []dpl.Value) (dpl.Value, error) {
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
func (d *DPI) Wait(ctx context.Context) (dpl.Value, error) {
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
func (d *DPI) Result() (dpl.Value, error) {
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

// Suspend pauses the instance at its next gate.
func (d *DPI) Suspend() { d.ctrl.Suspend() }

// Resume continues a suspended instance.
func (d *DPI) Resume() { d.ctrl.Resume() }

// State reports running / suspended / terminated / exited / failed /
// crashed (a recovered DP body panic).
func (d *DPI) State() string {
	d.mu.Lock()
	fin, crashed, err := d.finished, d.crashed, d.err
	d.mu.Unlock()
	if fin {
		switch {
		case crashed:
			return "crashed"
		case err != nil:
			return "failed"
		}
		return "exited"
	}
	if d.throttled.Load() {
		return "throttled"
	}
	return d.ctrl.State()
}

// Steps returns the instance's executed VM instruction count.
func (d *DPI) Steps() uint64 { return d.vm.Steps() }

func (d *DPI) info() Info {
	d.mu.Lock()
	defer d.mu.Unlock()
	inf := Info{
		ID:      d.ID,
		DP:      d.DP.Name,
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
			inf.Result = dpl.FormatValue(d.result)
		}
	} else if d.throttled.Load() {
		inf.State = "throttled"
	} else {
		inf.State = d.ctrl.State()
	}
	return inf
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
			return nil, err
		}
		ms, ok := args[0].(int64)
		if !ok {
			return nil, fmt.Errorf("elastic: sleep(ms) wants int, got %s", dpl.TypeName(args[0]))
		}
		err = d.unslotted(func() error {
			return p.clock.Sleep(env.VM.Context(), time.Duration(ms)*time.Millisecond)
		})
		if err != nil {
			return nil, err
		}
		// Honor a suspension that engaged while sleeping.
		if err := env.VM.Gate(); err != nil {
			return nil, err
		}
		return nil, nil
	})
	p.bindings.Register("now", 0, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		return p.clock.Now().Milliseconds(), nil
	})
	p.bindings.Register("recv", 1, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		d, err := dpiOf(env)
		if err != nil {
			return nil, err
		}
		ms, ok := args[0].(int64)
		if !ok {
			return nil, fmt.Errorf("elastic: recv(timeoutMs) wants int, got %s", dpl.TypeName(args[0]))
		}
		ctx := env.VM.Context()
		// Fast path: message already queued.
		select {
		case m := <-d.mailbox:
			return m, nil
		default:
		}
		if ms == 0 {
			return nil, nil
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
			case m := <-d.mailbox:
				msg = m
				return nil
			case <-timeout:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		if err != nil {
			return nil, err
		}
		return msg, nil
	})
	emit := func(kind EventKind) dpl.HostFunc {
		return func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
			d, err := dpiOf(env)
			if err != nil {
				return nil, err
			}
			if err := d.billEvent(); err != nil {
				return nil, err
			}
			p.emit(Event{DPI: d.ID, Kind: kind, Payload: dpl.FormatValue(args[0]), Time: p.clock.Now(), Principal: d.principal})
			return nil, nil
		}
	}
	p.bindings.Register("report", 1, emit(EventReport))
	p.bindings.Register("notify", 1, emit(EventNotify))
	p.bindings.Register("log", 1, emit(EventLog))
	p.bindings.Register("dpiid", 0, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		d, err := dpiOf(env)
		if err != nil {
			return nil, err
		}
		return d.ID, nil
	})
	// sendto(dpiID, payload): intra-process DPI-to-DPI messaging ("the
	// other dpis use rds to communicate between themselves"). Returns
	// true on delivery, false when the target is unknown, finished, or
	// its mailbox is full.
	p.bindings.Register("sendto", 2, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		if _, err := dpiOf(env); err != nil {
			return nil, err
		}
		id, ok1 := args[0].(string)
		payload, ok2 := args[1].(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("elastic: sendto(dpiID, payload) wants strings")
		}
		target, ok := p.Lookup(id)
		if !ok || target.Finished() {
			return false, nil
		}
		select {
		case target.mailbox <- payload:
			p.met.messagesSent.Inc()
			return true, nil
		default:
			return false, nil
		}
	})
}
