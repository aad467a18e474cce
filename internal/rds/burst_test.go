package rds

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mbd/internal/elastic"
)

// TestBatchFitsQueueTwice: the largest batch an instance hands off is
// at most half a subscriber queue, so one batch never overflows a queue
// the pump has just emptied.
func TestBatchFitsQueueTwice(t *testing.T) {
	if 2*elastic.MaxEventBatch > subscriberQueueDepth {
		t.Fatalf("elastic.MaxEventBatch %d is more than half of subscriberQueueDepth %d",
			elastic.MaxEventBatch, subscriberQueueDepth)
	}
}

// burstServer starts a process under cfg behind an RDS server and
// returns the process and a subscribed client.
func burstServer(t *testing.T, cfg elastic.Config) (*elastic.Process, *Client) {
	t.Helper()
	proc := elastic.NewProcess(cfg)
	t.Cleanup(proc.Stop)
	c := startServer(t, proc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Subscribe(ctx, ""); err != nil {
		t.Fatal(err)
	}
	return proc, c
}

// awaitEvents reads n events from c, failing after 10s.
func awaitEvents(t *testing.T, c *Client, n int) []Event {
	t.Helper()
	var evs []Event
	timeout := time.After(10 * time.Second)
	for len(evs) < n {
		select {
		case ev := <-c.Events():
			evs = append(evs, ev)
		case <-timeout:
			t.Fatalf("received %d of %d events", len(evs), n)
		}
	}
	return evs
}

// settledCounter reads series once it has held still for 20ms: the
// server counts a write after it returns, which may be after the client
// has read what it carried.
func settledCounter(t *testing.T, proc *elastic.Process, series string) uint64 {
	t.Helper()
	v := counterValue(proc.Obs(), series)
	for {
		time.Sleep(20 * time.Millisecond)
		next := counterValue(proc.Obs(), series)
		if next == v {
			return v
		}
		v = next
	}
}

// TestBurstLeavesInOneWrite: with no scheduling tick inside a burst,
// 128 reports followed by recv leave the server in exactly one event
// write, beside the Send's reply.
func TestBurstLeavesInOneWrite(t *testing.T) {
	proc, c := burstServer(t, elastic.Config{SchedQuantum: 1 << 40})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Delegate(ctx, "burst", `
func main() {
	while (true) {
		var m = recv(-1);
		for (var j = 0; j < 128; j += 1) { report(m + " " + str(j)); }
	}
}`); err != nil {
		t.Fatal(err)
	}
	id, err := c.Instantiate(ctx, "burst", "main")
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	w0 := settledCounter(t, proc, "rds_writes_total")
	for r := 0; r < rounds; r++ {
		if err := c.Send(ctx, id, fmt.Sprint(r)); err != nil {
			t.Fatal(err)
		}
		for j, ev := range awaitEvents(t, c, 128) {
			if want := fmt.Sprintf("%d %d", r, j); ev.Payload != want {
				t.Fatalf("event %q, want %q", ev.Payload, want)
			}
		}
	}
	if w := settledCounter(t, proc, "rds_writes_total") - w0; w != 2*rounds {
		t.Fatalf("%d bursts took %d writes, want %d (one reply and one event write each)", rounds, w, 2*rounds)
	}
}

// TestExitInLastReportsFrame: a DPI that reports and returns puts its
// reports and its exit event in one write, beside the Instantiate
// reply.
func TestExitInLastReportsFrame(t *testing.T) {
	proc, c := burstServer(t, elastic.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Delegate(ctx, "r", `func main() { for (var i = 0; i < 5; i += 1) { report(i); } return 9; }`); err != nil {
		t.Fatal(err)
	}
	w0 := settledCounter(t, proc, "rds_writes_total")
	if _, err := c.Instantiate(ctx, "r", "main"); err != nil {
		t.Fatal(err)
	}
	evs := awaitEvents(t, c, 6)
	if last := evs[5]; last.Kind != "exit" || last.Payload != "9" {
		t.Fatalf("last event %+v, want the exit", last)
	}
	if w := settledCounter(t, proc, "rds_writes_total") - w0; w != 2 {
		t.Fatalf("instantiate and its events took %d writes, want 2", w)
	}
}

// TestEmittedBalancesDelivered: with one subscriber, every event
// counted emitted is sent, dropped or shed once the client has it — a
// scrape never finds an event emitted but not delivered — and an event
// still buffered in its DPI is not yet counted emitted.
func TestEmittedBalancesDelivered(t *testing.T) {
	proc, c := burstServer(t, elastic.Config{SchedQuantum: 1 << 40})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	balance := func(received int) {
		t.Helper()
		sent := settledCounter(t, proc, "rds_events_sent_total")
		emitted := counterValue(proc.Obs(), "elastic_events_emitted_total")
		lost := counterValue(proc.Obs(), "rds_events_dropped_total") + counterValue(proc.Obs(), "rds_events_shed_total")
		if emitted != sent+lost || sent != uint64(received) {
			t.Fatalf("emitted %d, sent %d, dropped or shed %d, received %d", emitted, sent, lost, received)
		}
	}
	if err := c.Delegate(ctx, "burst", `
func main() {
	while (true) {
		var n = int(recv(-1));
		for (var j = 0; j < n; j += 1) { report(j); }
	}
}`); err != nil {
		t.Fatal(err)
	}
	id, err := c.Instantiate(ctx, "burst", "main")
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	// Each burst fits the client's Events channel, which fills while
	// Send waits for its reply.
	for _, n := range []int{1, 127, 128, 129, 256} {
		if err := c.Send(ctx, id, fmt.Sprint(n)); err != nil {
			t.Fatal(err)
		}
		received += len(awaitEvents(t, c, n))
		balance(received)
	}

	if err := c.Delegate(ctx, "spin", `func main() { report("held"); while (true) {} }`); err != nil {
		t.Fatal(err)
	}
	spin, err := c.Instantiate(ctx, "spin", "main")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	balance(received)
	if err := c.Control(ctx, spin, "suspend"); err != nil {
		t.Fatal(err)
	}
	if ev := awaitEvents(t, c, 1)[0]; ev.Payload != "held" {
		t.Fatalf("event %+v, want the held report", ev)
	}
	balance(received + 1)
}

// TestTightLoopDrops: 10,000 reports in a tight loop to a client that
// reads promptly arrive in order, and every event that does not arrive
// is counted dropped, by the server or by the client.
func TestTightLoopDrops(t *testing.T) {
	proc, c := burstServer(t, elastic.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 10_000
	if err := c.Delegate(ctx, "flood", fmt.Sprintf(`
func main() { for (var i = 0; i < %d; i += 1) { report(i); } return -1; }`, n)); err != nil {
		t.Fatal(err)
	}
	var (
		received atomic.Uint64
		payloads []string
	)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case ev := <-c.Events():
				payloads = append(payloads, ev.Payload)
				received.Add(1)
			case <-stop:
				return
			}
		}
	}()
	id, err := c.Instantiate(ctx, "flood", "main")
	if err != nil {
		t.Fatal(err)
	}
	d, ok := proc.Lookup(id)
	if !ok {
		t.Fatalf("no instance %s", id)
	}
	if _, err := d.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// Each of the n reports and the exit is written or dropped by the
	// server, and each written one read or dropped by the client.
	var sent, dropped uint64
	for {
		sent = counterValue(proc.Obs(), "rds_events_sent_total")
		dropped = counterValue(proc.Obs(), "rds_events_dropped_total")
		if sent+dropped == n+1 && received.Load()+c.EventsDropped() == sent {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("sent %d, dropped %d, received %d, client-dropped %d of %d",
				sent, dropped, received.Load(), c.EventsDropped(), n+1)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	t.Logf("%d of %d events received, %d dropped by the server, %d by the client", len(payloads), n+1, dropped, c.EventsDropped())
	last := -1
	for _, p := range payloads {
		i, err := strconv.Atoi(p)
		if err != nil || i != -1 && i <= last {
			t.Fatalf("event %q after report %d", p, last)
		}
		last = max(last, i)
	}
}

// TestClientDropsKeepTheChain: a client that reads nothing while a
// 300-event burst arrives on top of 255 unread events keeps 256 events
// and counts the rest dropped, and still decodes every later frame:
// each event it delivers, the next op's report among them, carries
// exactly the DPI, kind, principal, time and payload the server emitted.
// The kinds rotate, so a client that kept the context at the last event
// it delivered would misread or refuse the next frame.
func TestClientDropsKeepTheChain(t *testing.T) {
	proc, c := burstServer(t, elastic.Config{SchedQuantum: 1 << 40})
	var (
		mu      sync.Mutex
		emitted []Event
	)
	t.Cleanup(proc.Subscribe(func(ev elastic.Event) {
		mu.Lock()
		emitted = append(emitted, wireEvent(ev))
		mu.Unlock()
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Delegate(ctx, "rotor", `
func main() {
	report("ready");
	while (true) {
		var m = recv(-1);
		var n = 1;
		if (m == "fill") { n = 254; }
		if (m == "burst") { n = 300; }
		for (var j = 0; j < n; j += 1) {
			var p = m + " " + str(j);
			if (j % 3 == 0) { report(p); } else if (j % 3 == 1) { notify(p); } else { log(p); }
		}
	}
}`); err != nil {
		t.Fatal(err)
	}
	id, err := c.Instantiate(ctx, "rotor", "main")
	if err != nil {
		t.Fatal(err)
	}
	// await waits until the server has sent or dropped all n events
	// emitted so far and the client has kept or dropped each one sent.
	await := func(n uint64) (sent uint64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			sent = counterValue(proc.Obs(), "rds_events_sent_total")
			lost := counterValue(proc.Obs(), "rds_events_dropped_total") + counterValue(proc.Obs(), "rds_events_shed_total")
			if sent+lost == n && uint64(len(c.Events()))+c.EventsDropped() == sent {
				return sent
			}
			if time.Now().After(deadline) {
				t.Fatalf("server sent %d and lost %d of %d; client holds %d and dropped %d",
					sent, lost, n, len(c.Events()), c.EventsDropped())
			}
		}
	}
	// "ready" and the fill, 255 events in batches the server's queue
	// holds, leave Events one slot.
	if err := c.Send(ctx, id, "fill"); err != nil {
		t.Fatal(err)
	}
	if sent := await(1 + 254); sent != 255 || c.EventsDropped() != 0 {
		t.Fatalf("fill: %d sent, %d dropped by the client", sent, c.EventsDropped())
	}
	if err := c.Send(ctx, id, "burst"); err != nil {
		t.Fatal(err)
	}
	sent := await(1 + 254 + 300)
	got := awaitEvents(t, c, len(c.Events()))
	if len(got) != 256 || uint64(len(got))+c.EventsDropped() != sent {
		t.Fatalf("received %d, client dropped %d, server sent %d", len(got), c.EventsDropped(), sent)
	}
	if err := c.Send(ctx, id, "next"); err != nil {
		t.Fatal(err)
	}
	got = append(got, awaitEvents(t, c, 1)...)
	// What arrived is what was emitted, in order, less what was dropped.
	mu.Lock()
	defer mu.Unlock()
	i := 0
	for k, ev := range got {
		for i < len(emitted) && emitted[i] != ev {
			i++
		}
		if i == len(emitted) {
			t.Fatalf("event %d %+v was not emitted (or not in this order)", k, ev)
		}
		i++
	}
	if last := emitted[len(emitted)-1]; got[len(got)-1] != last || last.Payload != "next 0" {
		t.Fatalf("last event %+v, want the next op's report %+v", got[len(got)-1], last)
	}
}
