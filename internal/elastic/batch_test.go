package elastic

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// batchRecorder keeps every batch a SubscribeBatch subscriber is
// handed, copied, in arrival order.
type batchRecorder struct {
	mu      sync.Mutex
	batches [][]Event
}

func recordBatches(t *testing.T, p *Process) *batchRecorder {
	r := &batchRecorder{}
	t.Cleanup(p.SubscribeBatch(func(evs []Event) {
		r.mu.Lock()
		r.batches = append(r.batches, append([]Event(nil), evs...))
		r.mu.Unlock()
	}))
	return r
}

func (r *batchRecorder) snapshot() [][]Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]Event(nil), r.batches...)
}

// events flattens every batch so far.
func (r *batchRecorder) events() []Event {
	var out []Event
	for _, b := range r.snapshot() {
		out = append(out, b...)
	}
	return out
}

// hugeQuantum keeps the scheduling tick from firing in these tests, so
// the only hand-offs are the ones a test provokes.
const hugeQuantum = 1 << 40

// TestSuspendedDPIGivesUpRunSlot: with one run slot, suspending a
// spinning DPI frees the slot, so another instance runs to completion.
func TestSuspendedDPIGivesUpRunSlot(t *testing.T) {
	p := newProcess(t, Config{SchedWorkers: 1})
	if err := p.Delegate("mgr", "spin", "dpl", `func main() { while (true) {} }`); err != nil {
		t.Fatal(err)
	}
	if err := p.Delegate("mgr", "seven", "dpl", `func main() { return 7; }`); err != nil {
		t.Fatal(err)
	}
	spin, err := p.Instantiate("mgr", "spin", "main")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return spin.Steps() > 0 })
	if err := p.Control("mgr", spin.ID, ActionSuspend); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "seven", "main")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if v, err := d.Wait(ctx); err != nil || v != int64(7) {
		t.Fatalf("second instance behind a suspended one: %v, %v", v, err)
	}
	if err := p.Control("mgr", spin.ID, ActionResume); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		before := spin.Steps()
		time.Sleep(5 * time.Millisecond)
		return spin.Steps() > before
	})
}

// TestSuspendHandsOffEvents: what a DPI reported before it was
// suspended reaches subscribers while it is still suspended, though no
// scheduling tick has fired.
func TestSuspendHandsOffEvents(t *testing.T) {
	p := newProcess(t, Config{SchedQuantum: hugeQuantum})
	rec := recordBatches(t, p)
	if err := p.Delegate("mgr", "r", "dpl", `func main() { report("before"); while (true) {} }`); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "r", "main")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return d.Steps() > 10_000 })
	if n := len(rec.events()); n != 0 {
		t.Fatalf("%d events delivered mid-slice, want them buffered", n)
	}
	if err := p.Control("mgr", d.ID, ActionSuspend); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(rec.events()) == 1 })
	if ev := rec.events()[0]; ev.Kind != EventReport || ev.Payload != "before" {
		t.Fatalf("got %+v", ev)
	}
	if s := d.info().State; s != "suspended" {
		t.Fatalf("state %s, want suspended", s)
	}
}

// TestStepsExactAcrossSuspend: a suspended DPI's step count holds
// still, and a run suspended and resumed midway ends with exactly the
// steps of one that ran straight through.
func TestStepsExactAcrossSuspend(t *testing.T) {
	p := newProcess(t, Config{})
	src := `func main() { var i = 0; while (i < 3000000) { i += 1; } return i; }`
	if err := p.Delegate("mgr", "count", "dpl", src); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref, err := p.Instantiate("mgr", "count", "main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "count", "main")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return d.Steps() > 0 })
	if err := p.Control("mgr", d.ID, ActionSuspend); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		before := d.Steps()
		time.Sleep(5 * time.Millisecond)
		return d.Steps() == before
	})
	parked := d.Steps()
	if parked == 0 || parked >= ref.Steps() || d.Finished() {
		t.Fatalf("parked at %d of %d steps (finished %v); suspend earlier", parked, ref.Steps(), d.Finished())
	}
	time.Sleep(20 * time.Millisecond)
	if got := d.Steps(); got != parked {
		t.Fatalf("suspended DPI moved from %d to %d steps", parked, got)
	}
	if err := p.Control("mgr", d.ID, ActionResume); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if d.Steps() != ref.Steps() {
		t.Fatalf("resumed run took %d steps, straight run %d", d.Steps(), ref.Steps())
	}
}

// TestEventOrderPerDPI: each subscriber sees every DPI's events in the
// order it emitted them, with two DPIs emitting at once across many
// batches, and a report made before a sendto arrives before anything
// the message makes its target emit.
func TestEventOrderPerDPI(t *testing.T) {
	p := newProcess(t, Config{})
	const n = 1000
	var mu sync.Mutex
	seen := map[string][]string{}
	defer p.Subscribe(func(ev Event) {
		if ev.Kind == EventReport {
			mu.Lock()
			seen[ev.DPI] = append(seen[ev.DPI], ev.Payload)
			mu.Unlock()
		}
	})()
	if err := p.Delegate("mgr", "count", "dpl", fmt.Sprintf(`
func main() { for (var i = 0; i < %d; i += 1) { report(str(i)); } }`, n)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var dpis []*DPI
	for range 2 {
		d, err := p.Instantiate("mgr", "count", "main")
		if err != nil {
			t.Fatal(err)
		}
		dpis = append(dpis, d)
	}
	for _, d := range dpis {
		if _, err := d.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	for _, d := range dpis {
		if len(seen[d.ID]) != n {
			t.Fatalf("%s: %d reports, want %d", d.ID, len(seen[d.ID]), n)
		}
		for i, s := range seen[d.ID] {
			if s != strconv.Itoa(i) {
				t.Fatalf("%s: report %d is %q", d.ID, i, s)
			}
		}
	}
	mu.Unlock()

	// Causal order across instances, with no tick to hand off early.
	q := newProcess(t, Config{SchedQuantum: hugeQuantum})
	rec := recordBatches(t, q)
	if err := q.Delegate("mgr", "echo", "dpl", `func main() { report("got " + recv(-1)); }`); err != nil {
		t.Fatal(err)
	}
	if err := q.Delegate("mgr", "cause", "dpl", `func main(to) { report("sent"); sendto(to, "x"); while (true) {} }`); err != nil {
		t.Fatal(err)
	}
	echo, err := q.Instantiate("mgr", "echo", "main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Instantiate("mgr", "cause", "main", echo.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := echo.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, ev := range rec.events() {
		if ev.Kind == EventReport {
			order = append(order, ev.Payload)
		}
	}
	if fmt.Sprint(order) != "[sent got x]" {
		t.Fatalf("reports arrived as %q, want the cause first", order)
	}
}

// TestEmitThenSpinDeliversWithinQuantum: a DPI that reports and then
// computes without blocking hands the report off at its next
// scheduling tick, at most one quantum (and one gate window) later.
func TestEmitThenSpinDeliversWithinQuantum(t *testing.T) {
	const quantum = 4096
	p := newProcess(t, Config{SchedQuantum: quantum})
	at := make(chan uint64, 1)
	defer p.Subscribe(func(ev Event) {
		if d, ok := p.Lookup(ev.DPI); ok && ev.Kind == EventReport {
			at <- d.Steps()
		}
	})()
	if err := p.Delegate("mgr", "r", "dpl", `func main() { report(1); while (true) {} }`); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Instantiate("mgr", "r", "main"); err != nil {
		t.Fatal(err)
	}
	select {
	case steps := <-at:
		if steps > quantum+256 {
			t.Fatalf("report handed off after %d steps, want within one quantum (%d)", steps, quantum)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("report never handed off")
	}
}

// TestExitJoinsLastBatch: a DPI that reports and returns hands its
// reports and its exit event to subscribers as one batch.
func TestExitJoinsLastBatch(t *testing.T) {
	p := newProcess(t, Config{})
	rec := recordBatches(t, p)
	if err := p.Delegate("mgr", "r", "dpl", `func main() { for (var i = 0; i < 5; i += 1) { report(i); } return 9; }`); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "r", "main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	b := rec.snapshot()
	if len(b) != 1 || len(b[0]) != 6 || b[0][5].Kind != EventExit || b[0][5].Payload != "9" {
		t.Fatalf("batches %+v, want five reports and the exit in one", b)
	}
}

// TestBatchBound: a burst longer than MaxEventBatch is handed off in
// batches of at most MaxEventBatch events, and the counters move at
// each hand-off, not when an event is buffered.
func TestBatchBound(t *testing.T) {
	p := newProcess(t, Config{SchedQuantum: hugeQuantum})
	rec := recordBatches(t, p)
	const n = 2*MaxEventBatch + 44
	if err := p.Delegate("mgr", "r", "dpl", fmt.Sprintf(`
func main() { for (var i = 0; i < %d; i += 1) { report(i); } report("spin"); while (true) {} }`, n)); err != nil {
		t.Fatal(err)
	}
	d, err := p.Instantiate("mgr", "r", "main")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return d.Steps() > 100_000 })
	var sizes []int
	for _, b := range rec.snapshot() {
		sizes = append(sizes, len(b))
	}
	if fmt.Sprint(sizes) != fmt.Sprint([]int{MaxEventBatch, MaxEventBatch}) {
		t.Fatalf("batch sizes %v, want two full batches and the rest buffered", sizes)
	}
	if got := p.eventsEmitted.Load(); got != 2*MaxEventBatch {
		t.Fatalf("emitted counter %d with %d handed off", got, 2*MaxEventBatch)
	}
	if got := p.met.events[EventReport].Value(); got != 2*MaxEventBatch {
		t.Fatalf("report counter %d with %d handed off", got, 2*MaxEventBatch)
	}
	d.Terminate()
	if _, err := d.Wait(context.Background()); err == nil {
		t.Fatal("terminated DPI exited cleanly")
	}
	if got := len(rec.events()); got != n+2 || p.eventsEmitted.Load() != n+2 {
		t.Fatalf("%d events delivered, %d counted; want %d", got, p.eventsEmitted.Load(), n+2)
	}
}
