package elastic

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settledHeap is the live heap once garbage is collected.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestFinishedHistoryBounded is the conservation check for a node that
// serves many short delegations: after N delegate → instantiate → exit
// cycles the process holds its resident instance plus the last
// finishedKept finished records, its live counts name only what is
// running, and its heap is where it was after N/10 cycles. The process
// runs with MaxDPIs 2 and one instance parked throughout, so every
// cycle also starts at the instance limit with one more finished record
// behind it: the live count has to be right without counting history.
func TestFinishedHistoryBounded(t *testing.T) {
	const (
		cycles = 10 * finishedKept
		names  = 64
	)
	p := newProcess(t, Config{MaxDPIs: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := p.Delegate("mgr", "resident", "dpl", `func main() { recv(-1); return "left"; }`); err != nil {
		t.Fatal(err)
	}
	resident, err := p.Instantiate("mgr", "resident", "main")
	if err != nil {
		t.Fatal(err)
	}

	ids := make([]string, 0, cycles)
	var heapEarly uint64
	for i := 0; i < cycles; i++ {
		// A new source every cycle, as a manager's one-off questions
		// are: the program cache turns over too.
		name := fmt.Sprintf("oneshot%d", i%names)
		if err := p.Delegate("mgr", name, "dpl", fmt.Sprintf(`func main() { return %d; }`, i)); err != nil {
			t.Fatal(err)
		}
		d, err := p.Instantiate("mgr", name, "main")
		if err != nil {
			t.Fatalf("cycle %d, one live instance under a limit of 2: %v", i, err)
		}
		if v, err := d.Wait(ctx); err != nil || v != int64(i) {
			t.Fatalf("cycle %d = %v, %v", i, v, err)
		}
		ids = append(ids, d.ID)
		if i+1 == cycles/10 {
			heapEarly = settledHeap()
		}
	}
	heapLate := settledHeap()

	p.mu.Lock()
	records := len(p.dpis)
	p.mu.Unlock()
	if records > 1+finishedKept {
		t.Errorf("%d instance records after %d exits, want at most 1 live + %d finished", records, cycles, finishedKept)
	}
	if all, err := p.Query("mgr", ""); err != nil || len(all) != records {
		t.Errorf("Query lists %d instances, %v; the process holds %d", len(all), err, records)
	}
	// The window is the newest finishedKept exits, each still answering
	// with its result; everything older is gone.
	for _, i := range []int{cycles - 1, cycles - finishedKept} {
		infos, err := p.Query("mgr", ids[i])
		if err != nil || len(infos) != 1 || infos[0].State != "exited" || infos[0].Result != fmt.Sprint(i) {
			t.Errorf("finished instance %s inside the window: %+v, %v", ids[i], infos, err)
		}
	}
	for _, i := range []int{0, cycles - finishedKept - 1} {
		if _, err := p.Query("mgr", ids[i]); !errors.Is(err, ErrNoSuchDPI) {
			t.Errorf("finished instance %s outside the window: err = %v, want ErrNoSuchDPI", ids[i], err)
		}
	}
	if _, ok := p.Lookup(resident.ID); !ok || resident.Finished() {
		t.Error("the resident instance did not survive the history turning over")
	}
	if live := p.met.live.Value(); live != 1 {
		t.Errorf("elastic_dpis_live = %d, want 1", live)
	}
	if live := p.tenants.get("mgr").live.Load(); live != 1 {
		t.Errorf("tenant mgr live DPIs = %d, want 1", live)
	}
	// Measured: the two settle within 100 KB of each other; a process
	// that kept every record of this one-line program would be ~8 MB up.
	const slack = 1 << 20
	if heapLate > heapEarly+slack {
		t.Errorf("live heap %d KB after %d cycles, %d KB after %d: grows with history",
			heapLate>>10, cycles, heapEarly>>10, cycles/10)
	}

	// At the limit the refusal is still exact, and an exit frees a slot.
	second, err := p.Instantiate("mgr", "resident", "main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Instantiate("mgr", "resident", "main"); !errors.Is(err, ErrTooManyDPIs) {
		t.Fatalf("third live instance under a limit of 2: err = %v, want ErrTooManyDPIs", err)
	}
	if err := p.Send("mgr", second.ID, "go"); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Instantiate("mgr", "resident", "main"); err != nil {
		t.Fatalf("slot not freed by an exit: %v", err)
	}
}

// TestColdRetention holds what a cold delegation leaves resident: after
// more cold delegate → instantiate → wait cycles than either the
// finished-record ring or the program cache holds, both are full, and
// the live heap they add, split over their finishedKept entries, is
// what one delegation keeps. A finished record keeps what Query reads
// and no machine, mailbox or program; a cached program keeps its code
// and the report admission reads. Measured at 10.7 KB when each record
// still held its VM's stack, a mailbox and its DP, and programs kept
// 24-byte instructions and per-function analysis; at 5.06 KB while a
// program kept the compiler's code array and constant pool, sized
// before optimization; 4.88 KB since. The ceiling keeps the 1.44 KB of
// headroom the 6.5 KB one left over 5.06.
func TestColdRetention(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory makes heap ceilings meaningless")
	}
	const (
		cycles  = 600 // more than the ring and the cache hold
		names   = 64
		ceiling = 6.3 * 1024
	)
	p := newProcess(t, Config{Bindings: coldBindings()})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	before := settledHeap()
	for i := 0; i < cycles; i++ {
		name := fmt.Sprintf("cold%02d", i%names)
		if err := p.Delegate("mgr", name, "dpl", coldHealthSource(i)); err != nil {
			t.Fatal(err)
		}
		d, err := p.Instantiate("mgr", name, "main")
		if err != nil {
			t.Fatal(err)
		}
		if v, err := d.Wait(ctx); err != nil || v != int64(1000+i) {
			t.Fatalf("cycle %d = %v, %v", i, v, err)
		}
	}
	after := settledHeap()
	if cached := cachedPrograms(p); cached != defaultProgCacheSize {
		t.Fatalf("%d programs cached, want a full cache of %d", cached, defaultProgCacheSize)
	}
	per := float64(int64(after)-int64(before)) / finishedKept
	t.Logf("%.2f KB live heap kept per cold delegation", per/1024)
	if per > ceiling {
		t.Errorf("%.2f KB live heap kept per cold delegation, want at most %.1f KB", per/1024, ceiling/1024)
	}
}

// TestSendToExitedInstanceRefused: a message to an instance that has
// exited is refused, not queued where no one will read it, and is not
// counted as sent; sendto from another instance reports false.
func TestSendToExitedInstanceRefused(t *testing.T) {
	p := newProcess(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for name, src := range map[string]string{
		"once":   `func main() { return 1; }`,
		"sender": `func main(id) { return sendto(id, "late"); }`,
	} {
		if err := p.Delegate("mgr", name, "dpl", src); err != nil {
			t.Fatal(err)
		}
	}
	d, err := p.Instantiate("mgr", "once", "main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		err := p.Send("mgr", d.ID, "late")
		if !errors.Is(err, ErrExited) || !strings.Contains(err.Error(), d.ID) {
			t.Fatalf("send %d to exited %s: err = %v, want ErrExited naming it", i, d.ID, err)
		}
	}
	s, err := p.Instantiate("mgr", "sender", "main", d.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := s.Wait(ctx); err != nil || v != false {
		t.Fatalf("sendto an exited instance = %v, %v, want false", v, err)
	}
	if n := p.met.messagesSent.Value(); n != 0 {
		t.Fatalf("elastic_messages_sent_total = %d after sends to an exited instance, want 0", n)
	}
}

// TestFinishedRecordAnswers: the record an exit leaves answers Query
// as the running instance would have at its exit, for every way an
// instance ends.
func TestFinishedRecordAnswers(t *testing.T) {
	p := newProcess(t, Config{Bindings: boomBindings(), WatchdogInterval: time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for name, src := range map[string]string{
		"normal":   `func main(n) { var s = 0; for (var i = 0; i < n; i += 1) { s += i; } return s; }`,
		"error":    `func main() { var m = {}; return m[1]; }`,
		"crash":    `func main() { var x = 1; boom(); return x; }`,
		"watchdog": `func main() { sleep(60000); return 1; }`,
		"killed":   `func main() { recv(-1); return 1; }`,
	} {
		if err := p.Delegate("mgr", name, "dpl", src); err != nil {
			t.Fatal(err)
		}
	}
	start := func(spec InstanceSpec) *DPI {
		t.Helper()
		d, err := p.InstantiateSpec("mgr", spec)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := []struct {
		d                  *DPI
		state, result, err string
		steps              uint64 // 0: whatever the run took
	}{
		{d: start(InstanceSpec{DP: "normal", Entry: "main", Args: []any{int64(10)}}), state: "exited", result: "45", steps: 67},
		{d: start(InstanceSpec{DP: "error", Entry: "main"}), state: "failed", err: "dpl: runtime error: map key must be string, got int", steps: 6},
		{d: start(InstanceSpec{DP: "crash", Entry: "main"}), state: "crashed", err: "elastic: dp panicked: kaboom", steps: 1},
		{d: start(InstanceSpec{DP: "watchdog", Entry: "main", Deadline: 5 * time.Millisecond}), state: "failed", err: "elastic: killed by watchdog: deadline 5ms exceeded"},
		{d: start(InstanceSpec{DP: "killed", Entry: "main"}), state: "failed", err: "context canceled", steps: 3},
	}
	// Terminated once parked in recv, whose step count it publishes.
	for killed := cases[4].d; killed.Steps() != 3; {
		time.Sleep(time.Millisecond)
	}
	if err := p.Control("mgr", cases[4].d.ID, ActionTerminate); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		d := tc.d
		d.Wait(ctx)
		infos, err := p.Query("mgr", d.ID)
		if err != nil || len(infos) != 1 {
			t.Fatalf("Query %s = %v, %v", d.ID, infos, err)
		}
		got := infos[0]
		want := Info{ID: d.ID, DP: d.spec.DP, Entry: "main", State: tc.state, Steps: got.Steps, Started: d.started, Result: tc.result, Err: tc.err}
		if tc.steps != 0 {
			want.Steps = tc.steps
		}
		if got != want {
			t.Errorf("finished %s:\n got %+v\nwant %+v", d.ID, got, want)
		}
		if got.Steps != d.Steps() {
			t.Errorf("finished %s: Query reads %d steps, Steps %d", d.ID, got.Steps, d.Steps())
		}
	}
}
