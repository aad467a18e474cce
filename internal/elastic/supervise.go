package elastic

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"mbd/internal/obs"
)

// DPI supervision: the paper's elastic process is meant to keep
// managing a device *through* failures, so a misbehaving delegated
// program must never take the process (or its siblings) down. Three
// mechanisms compose here:
//
//   - every DPI body runs under recover(): a panic becomes a `crashed`
//     instance state plus a trace span and a counter, never a process
//     crash (see DPI.exec in dpi.go);
//   - a per-instance restart policy (never / on-failure / always)
//     drives a jittered exponential-backoff supervisor with a
//     consecutive-failure crash-loop cap;
//   - an optional watchdog kills instances that exceed a wall-clock
//     deadline or stall without VM step progress.

// RestartPolicy selects when a supervised instance is re-instantiated
// after it exits.
type RestartPolicy string

// Restart policies.
const (
	// RestartNever runs the instance once; any exit is final. It is the
	// zero value and the behavior of plain Instantiate.
	RestartNever RestartPolicy = "never"
	// RestartOnFailure restarts after a failed exit: a runtime error, a
	// recovered panic, or a watchdog kill. Clean exits are final.
	RestartOnFailure RestartPolicy = "on-failure"
	// RestartAlways restarts after every exit, clean or failed, until
	// the instance is explicitly terminated or the crash-loop cap trips.
	RestartAlways RestartPolicy = "always"
)

// ParsePolicy maps a policy name to its RestartPolicy; the empty string
// means RestartNever. Unknown names return an error.
func ParsePolicy(s string) (RestartPolicy, error) {
	switch RestartPolicy(s) {
	case "", RestartNever:
		return RestartNever, nil
	case RestartOnFailure:
		return RestartOnFailure, nil
	case RestartAlways:
		return RestartAlways, nil
	}
	return RestartNever, fmt.Errorf("elastic: unknown restart policy %q", s)
}

// InstanceSpec describes one supervised instantiation: what to run and
// under which fault-tolerance regime.
type InstanceSpec struct {
	// DP names the delegated program to instantiate.
	DP string
	// Entry is the function invoked with Args.
	Entry string
	Args  []any
	// Policy selects the restart behavior (default RestartNever).
	Policy RestartPolicy
	// Deadline, when nonzero, bounds each run's wall-clock lifetime on
	// the process clock; the watchdog kills instances that exceed it.
	Deadline time.Duration
	// StallTimeout, when nonzero, bounds how long a run may go without
	// consuming any VM step before the watchdog kills it. Use it for
	// compute-bound programs that must make forward progress; programs
	// legitimately parked in recv(-1) should leave it zero.
	StallTimeout time.Duration
	// Principal is the billing principal the instance runs under: its
	// tenant ledger is charged for the slot, the steps and the events,
	// across every supervised incarnation. InstantiateSpec fills it from
	// the instantiating principal when empty; checkpoint restore carries
	// the original through.
	Principal string
}

// Supervision errors.
var (
	// ErrWatchdogKilled marks a run terminated by the watchdog, either
	// for blowing its wall-clock deadline or for stalling.
	ErrWatchdogKilled = errors.New("elastic: killed by watchdog")
)

// PanicError is a recovered panic from a DP body, carried as the
// instance's exit error. The instance reports state "crashed".
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("elastic: dp panicked: %v", e.Value)
}

// Supervision defaults, applied by NewProcess when the Config fields
// are zero.
const (
	defaultBackoffBase      = 100 * time.Millisecond
	defaultBackoffMax       = 30 * time.Second
	defaultMaxRestarts      = 8
	defaultWatchdogInterval = 100 * time.Millisecond
)

// InstantiateSpec creates a supervised DPI according to spec. It is
// Instantiate plus fault tolerance: the instance runs under spec.Policy
// with backoff restarts, and under the watchdog when spec carries a
// Deadline or StallTimeout. The returned DPI is the first incarnation;
// restarts create fresh instances (fresh id, fresh VM) visible through
// Query.
func (p *Process) InstantiateSpec(principal string, spec InstanceSpec) (*DPI, error) {
	if !p.cfg.ACL.Allow(principal, RightInstantiate) {
		return nil, fmt.Errorf("%w: %s may not instantiate", ErrDenied, principal)
	}
	if _, err := ParsePolicy(string(spec.Policy)); err != nil {
		return nil, err
	}
	if spec.Policy == "" {
		spec.Policy = RestartNever
	}
	if spec.Principal == "" {
		spec.Principal = principal
	}
	dp, ok := p.repo.Lookup(spec.DP)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchDP, spec.DP)
	}
	var sup *supervisor
	if spec.Policy != RestartNever {
		sup = &supervisor{p: p, spec: spec}
	}
	return p.startInstance(dp, spec, sup)
}

// supervisor tracks one supervised lineage: the spec it re-instantiates
// and the consecutive-failure count driving backoff and the crash-loop
// cap. It is only touched from the exiting instance's goroutine and the
// restart timer goroutine it spawns, never concurrently.
type supervisor struct {
	p    *Process
	spec InstanceSpec
	// killed marks an operator terminate on any incarnation of the
	// lineage. It ends supervision even when the terminate lands between
	// incarnations (a fast-exiting DP is mostly in its backoff window,
	// so racing the live instance would make stopping it a lottery).
	killed atomic.Bool
	// failures counts consecutive failed exits; a clean exit resets it.
	failures int
	// restarts counts total restarts performed for this lineage.
	restarts int
}

// onExit decides the supervised instance's fate. It runs on the
// exiting DPI's goroutine, before that goroutine releases its WaitGroup
// slot — which makes the wg.Add for the restart timer race-free against
// Process.Stop.
func (s *supervisor) onExit(d *DPI, runErr error) {
	p := s.p
	if d.userKilled.Load() || s.killed.Load() {
		return // operator terminate is always final
	}
	switch s.spec.Policy {
	case RestartAlways:
	case RestartOnFailure:
		if runErr == nil {
			return
		}
	default:
		return
	}
	if runErr != nil {
		s.failures++
	} else {
		s.failures = 0
	}
	if s.failures > p.supMaxRestarts {
		p.met.crashLoops.Inc()
		p.tracer.Record(d.ID, obs.StageCrashLoop,
			fmt.Sprintf("gave up after %d consecutive failures", s.failures-1), 0)
		return
	}
	delay := Backoff(p.supBackoffBase, p.supBackoffMax, s.failures)
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.wg.Add(1)
	p.mu.Unlock()
	go s.restartAfter(d.ID, delay)
}

// restartAfter sleeps the backoff delay on the process clock, then
// re-instantiates the spec. A failed restart attempt counts as a
// failure and reschedules until the crash-loop cap trips.
func (s *supervisor) restartAfter(prevID string, delay time.Duration) {
	p := s.p
	defer p.wg.Done()
	if err := p.clock.Sleep(p.ctx, delay); err != nil {
		return // process stopping
	}
	if s.killed.Load() {
		return // lineage terminated during the backoff window
	}
	dp, ok := p.repo.Lookup(s.spec.DP)
	if !ok {
		p.tracer.Record(prevID, obs.StageRestart, "dp deleted; supervision ends", 0)
		return
	}
	// Capture the restart number before handing the spec to a new
	// incarnation: once startInstance returns, that incarnation may have
	// already exited and spawned the next timer goroutine, so this one
	// must no longer touch the supervisor's non-atomic fields.
	s.restarts++
	n := s.restarts
	d, err := p.startInstance(dp, s.spec, s)
	if err != nil {
		p.tracer.Record(prevID, obs.StageRestart, "restart failed: "+err.Error(), delay)
		if errors.Is(err, ErrStopped) {
			return
		}
		s.failures++
		if s.failures > p.supMaxRestarts {
			p.met.crashLoops.Inc()
			p.tracer.Record(prevID, obs.StageCrashLoop,
				fmt.Sprintf("gave up after %d consecutive failures", s.failures-1), 0)
			return
		}
		p.mu.Lock()
		if p.stopped {
			p.mu.Unlock()
			return
		}
		p.wg.Add(1)
		p.mu.Unlock()
		go s.restartAfter(prevID, Backoff(p.supBackoffBase, p.supBackoffMax, s.failures))
		return
	}
	p.met.restarts.Inc()
	p.tracer.Record(d.ID, obs.StageRestart,
		fmt.Sprintf("restart #%d of %s (prev %s)", n, s.spec.DP, prevID), delay)
}

// Backoff is the one jittered exponential retry delay: for the 1-based
// attempt n it takes d = base·2^(n-1), capped at max, and returns a
// value in [d/2, d] — half fixed, half uniform random — so a fleet of
// restarting instances or redialing peers decorrelates and no delay
// ever exceeds max. Supervised restarts, RDS client reconnects and the
// federation's join retries and heartbeats all pace with it.
func Backoff(base, max time.Duration, n int) time.Duration {
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(int64(d)-half+1))
}

// watchdog polls one running instance on the process clock, killing it
// when it exceeds its wall-clock deadline or goes StallTimeout without
// consuming a VM step. It exits when the instance finishes.
func (d *DPI) watchdog() {
	p := d.proc
	defer p.wg.Done()
	lastSteps := d.vm.Steps()
	lastProgress := p.clock.Now()
	for {
		if err := p.clock.Sleep(p.ctx, p.supWatchdogInterval); err != nil {
			return
		}
		select {
		case <-d.done:
			return
		default:
		}
		now := p.clock.Now()
		if dl := d.spec.Deadline; dl > 0 && now-d.started > dl {
			d.killByWatchdog(fmt.Sprintf("deadline %v exceeded", dl))
			return
		}
		if st := d.spec.StallTimeout; st > 0 {
			steps := d.vm.Steps()
			if steps != lastSteps {
				lastSteps = steps
				lastProgress = now
			} else if now-lastProgress > st {
				d.killByWatchdog(fmt.Sprintf("no VM step progress for %v", st))
				return
			}
		}
	}
}

// killByWatchdog terminates the instance on the watchdog's behalf: the
// kill is recorded as a failure (restartable under on-failure/always),
// not as an operator terminate.
func (d *DPI) killByWatchdog(reason string) {
	r := reason
	d.wdReason.Store(&r)
	p := d.proc
	p.met.watchdogKills.Inc()
	p.tracer.Record(d.ID, obs.StageWatchdog, reason, p.clock.Now()-d.started)
	d.ctrl.Terminate()
	d.cancel()
}
