package elastic

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mbd/internal/obs"
)

// TestProcessObservability drives the full delegation lifecycle and
// checks that the registry and tracer see every stage: admit, reject
// (with per-code labels), instantiate, emit, exit.
func TestProcessObservability(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	// A tiny cost ceiling admits straight-line programs but rejects
	// unbounded loops with a CodeCostCeiling diagnostic.
	p := newProcess(t, Config{Obs: reg, Tracer: tr, CostCeiling: 1000})

	if err := p.Delegate("mgr", "ok", "dpl", `func main() { report("hi"); return 7; }`); err != nil {
		t.Fatal(err)
	}
	// Unbounded loop -> cost-ceiling rejection with a code label on
	// elastic_rejections_by_code_total.
	if err := p.Delegate("mgr", "bad", "dpl", `func main() { while (1) { report("x"); } }`); err == nil {
		t.Fatal("expected rejection")
	}
	d, err := p.Instantiate("mgr", "ok", "main")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := d.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"elastic_delegations_total 1",
		"elastic_rejections_total 1",
		"elastic_rejections_by_code_total{code=",
		"elastic_instantiations_total 1",
		"elastic_dpis_live 0",
		"elastic_vm_steps_total",
		`elastic_events_total{kind="report"} 1`,
		`elastic_events_total{kind="exit"} 1`,
		"elastic_run_duration_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}

	stages := map[string]bool{}
	for _, sp := range tr.Recent(0) {
		stages[sp.Stage] = true
	}
	for _, want := range []string{obs.StageDelegate, obs.StageReject,
		obs.StageInstantiate, obs.StageEmit, obs.StageExit} {
		if !stages[want] {
			t.Errorf("tracer missing stage %q (got %v)", want, stages)
		}
	}
}

// TestProcessPrivateRegistry checks counting still happens when no
// registry is supplied: Stats() reads the private one.
func TestProcessPrivateRegistry(t *testing.T) {
	p := newProcess(t, Config{})
	if err := p.Delegate("x", "dp", "dpl", `func main() { return 1; }`); err != nil {
		t.Fatal(err)
	}
	if n := p.met.delegations.Value(); n != 1 {
		t.Fatalf("delegations = %d, want 1", n)
	}
	if p.Obs() == nil {
		t.Fatal("private registry must exist")
	}
}

// TestSubscriberGauge tracks subscribe/unsubscribe on the gauge.
func TestSubscriberGauge(t *testing.T) {
	p := newProcess(t, Config{})
	cancel := p.Subscribe(func(Event) {})
	if v := p.met.subscribers.Value(); v != 1 {
		t.Fatalf("subscribers = %d, want 1", v)
	}
	cancel()
	cancel() // idempotent: second call must not go negative
	if v := p.met.subscribers.Value(); v != 0 {
		t.Fatalf("subscribers = %d, want 0", v)
	}
}

// TestExitCountedBeforeWaitReturns: an instance's exit event is emitted,
// and counted, before Wait returns. A first subscriber that dawdles on
// the exit holds a second one back; if done closed before the event,
// Wait would return while the second had seen nothing and the counter
// read 0.
func TestExitCountedBeforeWaitReturns(t *testing.T) {
	reg := obs.NewRegistry()
	p := newProcess(t, Config{Obs: reg})
	var exits atomic.Int64
	p.Subscribe(func(ev Event) {
		if ev.Kind == EventExit {
			time.Sleep(50 * time.Millisecond)
		}
	})
	p.Subscribe(func(ev Event) {
		if ev.Kind == EventExit {
			exits.Add(1)
		}
	})
	if err := p.Delegate("mgr", "quick", "dpl", `func main() { return 1; }`); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "quick", "main")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := d.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if n := exits.Load(); n != 1 {
		t.Errorf("Wait returned with %d exit events delivered, want 1", n)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `elastic_events_total{kind="exit"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("after Wait, metrics lack %q:\n%s", want, sb.String())
	}
}
