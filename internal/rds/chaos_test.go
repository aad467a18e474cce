package rds

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"mbd/internal/elastic"
	"mbd/internal/faultinject"
	"mbd/internal/obs"
)

// TestChaosReconnect drives an RDS client through a fault-injected
// transport — connection resets, latency, partial writes, corrupt
// frames — and asserts the robustness contract: at least 30 injected
// faults, no request ever loses its ack (every round-trip returns a
// reply or an error, none hangs), the subscription survives to deliver
// events after the storm, and no goroutines leak.
func TestChaosReconnect(t *testing.T) {
	baseline := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	proc := elastic.NewProcess(elastic.Config{Obs: reg})
	addr := startListener(t, proc, WithObs(reg))

	inj := faultinject.New(faultinject.Config{
		Seed:             20260806,
		ResetProb:        0.02,
		LatencyProb:      0.05,
		MaxLatency:       2 * time.Millisecond,
		PartialWriteProb: 0.02,
		CorruptProb:      0.02,
		Obs:              reg,
	})
	dial := inj.Dialer(func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 5*time.Second)
	})
	first, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(first, "mgr",
		WithDialer(dial),
		WithReconnect(ReconnectConfig{BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond}))

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := c.Subscribe(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Delegate(ctx, "rep", `func main(n) { report(sprintf("n=%d", n)); return n; }`); err != nil {
		t.Fatal(err)
	}

	// Storm: keep issuing requests until >= 30 faults have fired. Every
	// call is bounded — an op that neither replies nor errors within its
	// deadline is a lost ack.
	inj.SetEnabled(true)
	var okOps, failedOps int
	for i := 0; inj.Total() < 30; i++ {
		if ctx.Err() != nil {
			t.Fatalf("storm timed out: %d faults, %d ok, %d failed", inj.Total(), okOps, failedOps)
		}
		opCtx, opCancel := context.WithTimeout(ctx, 5*time.Second)
		var err error
		if i%3 == 0 {
			_, err = c.Instantiate(opCtx, "rep", "main", "7")
		} else {
			_, err = c.Query(opCtx, "")
		}
		if opCtx.Err() != nil && err == nil {
			opCancel()
			t.Fatal("op deadline expired without a reply or an error — lost ack")
		}
		opCancel()
		if err != nil {
			failedOps++
		} else {
			okOps++
		}
	}
	inj.SetEnabled(false)
	stats := inj.Stats()
	t.Logf("chaos: faults=%+v ok=%d failed=%d", stats, okOps, failedOps)
	if okOps == 0 {
		t.Fatal("no operation ever succeeded during the storm")
	}

	// Convergence: with faults off, the client must become healthy and
	// the replayed subscription must deliver events end to end.
	if _, err := c.Query(ctx, ""); err != nil {
		t.Fatalf("post-storm query: %v", err)
	}
	if _, err := c.Instantiate(ctx, "rep", "main", "99"); err != nil {
		t.Fatalf("post-storm instantiate: %v", err)
	}
	for recovered := false; !recovered; {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatal("events channel closed — subscription not recovered")
			}
			if ev.Kind == "report" && ev.Payload == "n=99" {
				recovered = true
			}
		case <-ctx.Done():
			t.Fatal("subscription never recovered after the storm")
		}
	}

	// No pending round-trip left behind.
	c.mu.Lock()
	nPending := len(c.pending)
	c.mu.Unlock()
	if nPending != 0 {
		t.Fatalf("%d round-trips still pending after convergence", nPending)
	}

	// Teardown everything and verify no goroutine leaked. The server
	// fixture's cleanup runs after the test body, so stop the client and
	// process here and only poll the count against what those leave
	// running.
	c.Close()
	proc.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for {
		// +2: the fixture's Serve goroutine pair still runs until
		// t.Cleanup fires.
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: baseline=%d now=%d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
