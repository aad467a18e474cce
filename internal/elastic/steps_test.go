package elastic

import (
	"context"
	"testing"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/obs"
)

// stepsSrc runs a 300-iteration loop — several gate windows, ending
// mid-window — and then, by mode, exits (0), parks in recv (1) or fails
// with a division by zero (2).
const stepsSrc = `
func main(mode) {
	var i = 0;
	while (i < 300) { i = i + 1; }
	if (mode == 1) { recv(-1); }
	if (mode == 2) { return 1 / (mode - 2); }
	return i;
}`

// refSteps runs p's translation of stepsSrc on a bare VM, with recv
// stubbed to return at once, and returns the step count at the recv
// call (0 when mode never parks) and at the end of the run.
func refSteps(t *testing.T, p *Process, mode int64) (parked, final uint64) {
	t.Helper()
	dp, ok := p.repo.Lookup("steps")
	if !ok {
		t.Fatal("steps not delegated")
	}
	b := p.bindings.Clone()
	b.Register("recv", 1, func(env *dpl.Env, _ []dpl.Value) (dpl.Value, error) {
		env.VM.PublishSteps()
		parked = env.VM.Steps()
		return dpl.Value{}, nil
	})
	vm := dpl.NewVM(dp.Object, b)
	_, err := vm.Run(context.Background(), "main", mode)
	if (mode == 2) != (err != nil) {
		t.Fatalf("reference mode %d: err = %v", mode, err)
	}
	return parked, vm.Steps()
}

// TestStepsExact: a DPI's Steps is exact while it is parked in recv and
// once it has exited, failed or been terminated, and the same totals
// reach elastic_vm_steps_total and the tenant ledger, although the VM
// publishes its count only once per gate window while it runs.
func TestStepsExact(t *testing.T) {
	reg := obs.NewRegistry()
	// A small quantum so the ledger is billed both by scheduling ticks
	// and by the tail at exit.
	p := newProcess(t, Config{Obs: reg, SchedQuantum: 512})
	if err := p.Delegate("mgr", "steps", "dpl", stepsSrc); err != nil {
		t.Fatal(err)
	}
	var billed uint64
	ledger := func() uint64 {
		for _, st := range p.Tenants().List() {
			if st.Principal == "mgr" {
				return st.Steps
			}
		}
		return 0
	}
	finish := func(name string, d *DPI, want uint64) {
		t.Helper()
		select {
		case <-d.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: DPI did not finish", name)
		}
		if got := d.Steps(); got != want {
			t.Fatalf("%s: Steps = %d, want %d", name, got, want)
		}
		billed += want
		if got := counterValue(reg, "elastic_vm_steps_total"); got != billed {
			t.Fatalf("%s: elastic_vm_steps_total = %d, want %d", name, got, billed)
		}
		if got := ledger(); got != billed {
			t.Fatalf("%s: tenant ledger = %d, want %d", name, got, billed)
		}
	}
	park := func(name string, want uint64) *DPI {
		t.Helper()
		d, err := p.Instantiate("mgr", "steps", "main", int64(1))
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for d.Steps() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: parked DPI reports %d steps, want %d", name, d.Steps(), want)
			}
			time.Sleep(time.Millisecond)
		}
		return d
	}

	_, exitSteps := refSteps(t, p, 0)
	d, err := p.Instantiate("mgr", "steps", "main", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	finish("exit", d, exitSteps)

	_, failSteps := refSteps(t, p, 2)
	if d, err = p.Instantiate("mgr", "steps", "main", int64(2)); err != nil {
		t.Fatal(err)
	}
	finish("runtime error", d, failSteps)

	parkedSteps, resumedSteps := refSteps(t, p, 1)
	if parkedSteps%256 == 0 {
		t.Fatalf("recv lands on a gate boundary (%d); the test cannot tell a lagging count", parkedSteps)
	}
	d = park("parked", parkedSteps)
	if err := p.Send("mgr", d.ID, "go"); err != nil {
		t.Fatal(err)
	}
	finish("resumed", d, resumedSteps)

	d = park("terminated", parkedSteps)
	d.Terminate()
	finish("terminated", d, parkedSteps)
}
