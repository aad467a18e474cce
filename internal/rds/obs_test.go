package rds

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"mbd/internal/elastic"
	"mbd/internal/obs"
)

// TestStatsOp exercises OpStats end to end: the server renders its own
// registry (server protocol counters plus the elastic process runtime)
// into the reply payload, and the trace view returns the span ring.
func TestStatsOp(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(32)
	proc := elastic.NewProcess(elastic.Config{Obs: reg, Tracer: tr})
	t.Cleanup(proc.Stop)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(proc, nil, WithObs(reg), WithTracer(tr))
	if srv.reg != reg {
		t.Fatal("WithObs not applied")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, l)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	c, err := Dial(l.Addr().String(), "mgr")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer rcancel()
	if err := c.Delegate(rctx, "noop", `func main() { return 1; }`); err != nil {
		t.Fatal(err)
	}
	metrics, err := c.Stats(rctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`rds_requests_total{op="delegate"} 1`,
		`rds_requests_total{op="stats"} 1`,
		"rds_bytes_in_total",
		"rds_op_duration_seconds_count 1",
		"elastic_delegations_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("stats payload missing %q:\n%s", want, metrics)
		}
	}

	trace, err := c.Trace(rctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace, `"stage": "delegate"`) &&
		!strings.Contains(trace, `"stage":"delegate"`) {
		t.Errorf("trace payload missing delegate span:\n%s", trace)
	}

	// Unknown view is a remote error, not a dead connection.
	_, err = c.call(rctx, &Message{Op: OpStats, Entry: "bogus"})
	if err == nil {
		t.Fatal("bogus stats view accepted")
	}
	if _, err := c.Query(rctx, ""); err != nil {
		t.Fatalf("connection unusable after bad stats view: %v", err)
	}
}

// TestStatsOpDefaultRegistry checks NewServer without WithObs publishes
// on the process registry, so OpStats still answers.
func TestStatsOpDefaultRegistry(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	c := startServer(t, proc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rds_requests_total") {
		t.Fatalf("default-registry stats missing server counters:\n%s", out)
	}
}

// TestDialTimeout verifies Dial always bounds connection establishment:
// DefaultDialTimeout when unconfigured, the WithDialTimeout override
// otherwise, and never an unbounded net.Dial.
func TestDialTimeout(t *testing.T) {
	orig := tcpDial
	defer func() { tcpDial = orig }()
	var gotTimeout time.Duration
	tcpDial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		gotTimeout = timeout
		return nil, &net.OpError{Op: "dial", Net: network, Err: context.DeadlineExceeded}
	}

	if _, err := Dial("192.0.2.1:9", "mgr"); err == nil {
		t.Fatal("dial error swallowed")
	}
	if gotTimeout != DefaultDialTimeout {
		t.Fatalf("default timeout = %v, want %v", gotTimeout, DefaultDialTimeout)
	}
	if _, err := Dial("192.0.2.1:9", "mgr", WithDialTimeout(150*time.Millisecond)); err == nil {
		t.Fatal("dial error swallowed")
	}
	if gotTimeout != 150*time.Millisecond {
		t.Fatalf("timeout = %v, want 150ms", gotTimeout)
	}
}

// TestRoundTripReadDeadline verifies the reply path honors the caller's
// context deadline even when the server accepts the connection but
// never answers (the write succeeds; only the read would block).
func TestRoundTripReadDeadline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err == nil {
			accepted <- conn // hold open, never reply
		}
	}()
	c, err := Dial(l.Addr().String(), "mgr")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer func() {
		if conn := <-accepted; conn != nil {
			conn.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Query(ctx, ""); err == nil {
		t.Fatal("query against mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("query took %v, want ~200ms", elapsed)
	}
}

// TestStaleReadDeadlineKeepsEvents checks a deadline armed by an
// answered request does not tear down an idle subscribed connection:
// events still arrive after the deadline would have fired.
func TestStaleReadDeadlineKeepsEvents(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	c := startServer(t, proc, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	if err := c.Subscribe(ctx, ""); err != nil {
		cancel()
		t.Fatal(err)
	}
	cancel()
	// Let the armed deadline pass with no traffic at all.
	time.Sleep(400 * time.Millisecond)

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := c.Delegate(dctx, "pinger", `func main() { report("ping"); }`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Instantiate(dctx, "pinger", "main"); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatal("event stream closed: stale deadline killed the connection")
			}
			if ev.Kind == "report" && ev.Payload == "ping" {
				return
			}
		case <-deadline:
			t.Fatal("no event after stale deadline")
		}
	}
}
