package elastic

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
