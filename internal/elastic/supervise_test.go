package elastic

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/obs"
)

// boomBindings is Std plus a host function that panics, standing in for
// any buggy host extension a DP body might hit.
func boomBindings() *dpl.Bindings {
	b := dpl.Std()
	b.Register("boom", 0, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		panic("kaboom")
	})
	return b
}

// waitState polls until the instance with id reports state want.
func waitState(t *testing.T, p *Process, id, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		d, ok := p.Lookup(id)
		if ok && d.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	d, ok := p.Lookup(id)
	state := "<gone>"
	if ok {
		state = d.State()
	}
	t.Fatalf("instance %s state = %q, want %q", id, state, want)
}

// TestPanicRecovery: a panicking DP body crashes only its own instance.
// The process keeps serving, the instance reports "crashed", and the
// panic is counted and traced.
func TestPanicRecovery(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	p := newProcess(t, Config{Bindings: boomBindings(), Obs: reg, Tracer: tr})
	if err := p.Delegate("mgr", "bad", "dpl", `func main() { boom(); return 1; }`); err != nil {
		t.Fatal(err)
	}
	if err := p.Delegate("mgr", "good", "dpl", `func main() { return 42; }`); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "bad", "main")
	if err != nil {
		t.Fatal(err)
	}
	<-d.Done()
	if _, err := d.Result(); err == nil {
		t.Fatal("crashed instance reported no error")
	} else {
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "kaboom" || len(pe.Stack) == 0 {
			t.Fatalf("exit error = %v, want PanicError(kaboom) with stack", err)
		}
	}
	if s := d.State(); s != "crashed" {
		t.Fatalf("state = %q, want crashed", s)
	}
	infos, err := p.Query("mgr", d.ID)
	if err != nil || len(infos) != 1 || infos[0].State != "crashed" {
		t.Fatalf("query = %+v, %v", infos, err)
	}
	if v := p.met.panics.Value(); v != 1 {
		t.Fatalf("elastic_dpi_panics_total = %d, want 1", v)
	}
	// The process survived: other DPIs still run to completion.
	g, err := p.Instantiate("mgr", "good", "main")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if v, err := g.Wait(ctx); err != nil || v != int64(42) {
		t.Fatalf("sibling run = %v, %v", v, err)
	}
	found := false
	for _, sp := range tr.Recent(0) {
		if sp.Stage == obs.StageCrash && strings.Contains(sp.Detail, "kaboom") {
			found = true
		}
	}
	if !found {
		t.Fatal("no crash span recorded")
	}
}

// TestRestartOnFailure: a crashing DP under on-failure policy is
// restarted with backoff until it is explicitly terminated.
func TestRestartOnFailure(t *testing.T) {
	p := newProcess(t, Config{
		Bindings:           boomBindings(),
		RestartBackoffBase: time.Millisecond,
		RestartBackoffMax:  4 * time.Millisecond,
	})
	if err := p.Delegate("mgr", "crashy", "dpl", `func main() { boom(); }`); err != nil {
		t.Fatal(err)
	}
	d, err := p.InstantiateSpec("mgr", InstanceSpec{DP: "crashy", Entry: "main", Policy: RestartOnFailure})
	if err != nil {
		t.Fatal(err)
	}
	<-d.Done()
	deadline := time.Now().Add(10 * time.Second)
	for p.met.restarts.Value() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if v := p.met.restarts.Value(); v < 2 {
		t.Fatalf("elastic_dpi_restarts_total = %d, want >= 2", v)
	}
	// Restarts are fresh incarnations with increasing ids.
	if _, ok := p.Lookup("crashy#2"); !ok {
		t.Fatal("restarted incarnation crashy#2 not found")
	}
}

// TestRestartCapCrashLoop: consecutive failures trip the crash-loop cap
// and the supervisor gives up.
func TestRestartCapCrashLoop(t *testing.T) {
	p := newProcess(t, Config{
		Bindings:           boomBindings(),
		RestartBackoffBase: time.Millisecond,
		RestartBackoffMax:  2 * time.Millisecond,
		MaxRestarts:        3,
	})
	if err := p.Delegate("mgr", "crashy", "dpl", `func main() { boom(); }`); err != nil {
		t.Fatal(err)
	}
	if _, err := p.InstantiateSpec("mgr", InstanceSpec{DP: "crashy", Entry: "main", Policy: RestartOnFailure}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.met.crashLoops.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if v := p.met.crashLoops.Value(); v != 1 {
		t.Fatalf("elastic_crash_loops_total = %d, want 1", v)
	}
	// Exactly MaxRestarts restarts happened: the initial run plus 3
	// retries, then the cap tripped.
	if v := p.met.restarts.Value(); v != 3 {
		t.Fatalf("elastic_dpi_restarts_total = %d, want 3", v)
	}
	// Settled: no more restarts arrive.
	time.Sleep(20 * time.Millisecond)
	if v := p.met.restarts.Value(); v != 3 {
		t.Fatalf("restarts kept coming after crash-loop give-up: %d", v)
	}
}

// cyclingLineage starts a clean-exiting DP under the always policy and
// returns once it has been restarted at least three times, with its
// first (long exited) incarnation.
func cyclingLineage(t *testing.T) (*Process, *DPI) {
	t.Helper()
	p := newProcess(t, Config{
		RestartBackoffBase: time.Millisecond,
		RestartBackoffMax:  2 * time.Millisecond,
	})
	if err := p.Delegate("mgr", "oneshot", "dpl", `func main() { return 7; }`); err != nil {
		t.Fatal(err)
	}
	first, err := p.InstantiateSpec("mgr", InstanceSpec{DP: "oneshot", Entry: "main", Policy: RestartAlways})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.met.restarts.Value() < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if v := p.met.restarts.Value(); v < 3 {
		t.Fatalf("always-policy restarts = %d, want >= 3", v)
	}
	return p, first
}

// requireRestartsStop fails unless the restart counter comes to rest.
func requireRestartsStop(t *testing.T, p *Process) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		before := p.met.restarts.Value()
		time.Sleep(10 * time.Millisecond)
		if p.met.restarts.Value() == before {
			return // supervision stopped
		}
	}
	t.Fatal("terminate did not end the always-restart lineage")
}

// TestRestartAlwaysAndTerminate: always-policy instances restart even
// after clean exits, but an operator terminate is final.
func TestRestartAlwaysAndTerminate(t *testing.T) {
	p, _ := cyclingLineage(t)
	// Terminating any incarnation — even one that already exited — ends
	// the whole lineage; a fast-cycling DP spends almost all its time in
	// the backoff window, so catching it mid-run cannot be required.
	p.mu.Lock()
	for _, d := range p.dpis {
		d.Terminate()
	}
	p.mu.Unlock()
	requireRestartsStop(t, p)
}

// TestRestartEndsOnTerminateOfExitedIncarnation: the record of an exited
// incarnation, for as long as the finished ring keeps it, is a handle on
// its whole lineage. Terminating that one record through Control, with
// newer incarnations already come and gone, stops further restarts.
func TestRestartEndsOnTerminateOfExitedIncarnation(t *testing.T) {
	p, first := cyclingLineage(t)
	if !first.Finished() {
		t.Fatalf("first incarnation %s still running after three restarts", first.ID)
	}
	if err := p.Control("mgr", first.ID, ActionTerminate); err != nil {
		t.Fatalf("terminate of exited incarnation %s: %v", first.ID, err)
	}
	requireRestartsStop(t, p)
}

// TestWatchdogDeadline kills a run that exceeds its wall-clock budget
// and, under on-failure policy, restarts it.
func TestWatchdogDeadline(t *testing.T) {
	p := newProcess(t, Config{
		RestartBackoffBase: time.Millisecond,
		WatchdogInterval:   time.Millisecond,
	})
	if err := p.Delegate("mgr", "sleeper", "dpl", `func main() { sleep(60000); return 1; }`); err != nil {
		t.Fatal(err)
	}
	d, err := p.InstantiateSpec("mgr", InstanceSpec{
		DP: "sleeper", Entry: "main",
		Policy:   RestartOnFailure,
		Deadline: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never fired")
	}
	if _, err := d.Result(); !errors.Is(err, ErrWatchdogKilled) {
		t.Fatalf("exit error = %v, want ErrWatchdogKilled", err)
	}
	if v := p.met.watchdogKills.Value(); v < 1 {
		t.Fatalf("elastic_watchdog_kills_total = %d, want >= 1", v)
	}
	// Watchdog kill is a failure: the on-failure policy restarts it.
	deadline := time.Now().Add(10 * time.Second)
	for p.met.restarts.Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if v := p.met.restarts.Value(); v < 1 {
		t.Fatalf("watchdog-killed instance not restarted (restarts=%d)", v)
	}
}

// TestWatchdogStall kills a run making no VM step progress while one
// that keeps stepping survives the same stall budget.
func TestWatchdogStall(t *testing.T) {
	p := newProcess(t, Config{WatchdogInterval: time.Millisecond})
	// recv(-1) blocks forever without consuming steps: a stall.
	if err := p.Delegate("mgr", "stuck", "dpl", `func main() { recv(-1); return 1; }`); err != nil {
		t.Fatal(err)
	}
	d, err := p.InstantiateSpec("mgr", InstanceSpec{
		DP: "stuck", Entry: "main",
		StallTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("stall watchdog never fired")
	}
	if _, err := d.Result(); !errors.Is(err, ErrWatchdogKilled) {
		t.Fatalf("exit error = %v, want ErrWatchdogKilled", err)
	}
}

// TestInstantiateSpecValidation rejects unknown policies and missing
// DPs up front.
func TestInstantiateSpecValidation(t *testing.T) {
	p := newProcess(t, Config{})
	if _, err := p.InstantiateSpec("mgr", InstanceSpec{DP: "nope", Entry: "main"}); !errors.Is(err, ErrNoSuchDP) {
		t.Fatalf("missing dp: %v", err)
	}
	if err := p.Delegate("mgr", "ok", "dpl", `func main() { return 1; }`); err != nil {
		t.Fatal(err)
	}
	if _, err := p.InstantiateSpec("mgr", InstanceSpec{DP: "ok", Entry: "main", Policy: "sometimes"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if _, err := ParsePolicy("always"); err != nil {
		t.Fatal(err)
	}
	if pol, err := ParsePolicy(""); err != nil || pol != RestartNever {
		t.Fatalf("empty policy = %v, %v", pol, err)
	}
}
