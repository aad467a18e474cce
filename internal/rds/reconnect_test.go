package rds

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"mbd/internal/elastic"
)

// startListener runs an RDS server over TCP and returns its address.
func startListener(t *testing.T, proc *elastic.Process, opts ...ServerOption) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(proc, nil, opts...)
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
	return l.Addr().String()
}

// TestReconnectResubscribes: after a connection loss the client redials,
// replays its subscription, and events keep flowing on the same Events
// channel.
func TestReconnectResubscribes(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	addr := startListener(t, proc)

	var connMu sync.Mutex
	var conns []net.Conn
	dial := func() (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err == nil {
			connMu.Lock()
			conns = append(conns, conn)
			connMu.Unlock()
		}
		return conn, err
	}
	first, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(first, "mgr",
		WithDialer(dial),
		WithReconnect(ReconnectConfig{BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond}))
	t.Cleanup(func() { c.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Subscribe(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Delegate(ctx, "rep", `func main() { report("hi"); return 1; }`); err != nil {
		t.Fatal(err)
	}

	first.Close() // simulated network failure

	// Idempotent ops ride out the outage transparently.
	if _, err := c.Query(ctx, ""); err != nil {
		t.Fatalf("Query across outage: %v", err)
	}
	connMu.Lock()
	dials := len(conns)
	connMu.Unlock()
	if dials < 2 {
		t.Fatalf("dialed %d connections, want a redial after the outage", dials)
	}
	// The subscription was replayed: a fresh instance's events arrive on
	// the original channel, which never closed.
	if _, err := c.Instantiate(ctx, "rep", "main"); err != nil {
		t.Fatal(err)
	}
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatal("events channel closed across reconnect")
			}
			if ev.Kind == "report" && ev.Payload == "hi" {
				return
			}
		case <-ctx.Done():
			t.Fatal("event after reconnect never arrived")
		}
	}
}

// TestDisconnectedFailFast: while the connection is down, non-idempotent
// requests fail immediately with an error wrapping ErrDisconnected
// instead of blocking for their full deadline.
func TestDisconnectedFailFast(t *testing.T) {
	a, b := net.Pipe()
	dial := func() (net.Conn, error) { return nil, errors.New("unreachable") }
	c := NewClient(a, "mgr",
		WithDialer(dial),
		WithReconnect(ReconnectConfig{BackoffBase: 10 * time.Millisecond}))
	t.Cleanup(func() { c.Close() })
	b.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := c.Delegate(ctx, "x", "func main() {}")
		cancel()
		if errors.Is(err, ErrDisconnected) {
			if el := time.Since(start); el > 5*time.Second {
				t.Fatalf("fail-fast took %v", el)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw ErrDisconnected, last err = %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReconnectGivesUp: MaxAttempts consecutive failures terminate the
// client — the events channel closes and requests report the wrapped
// ErrDisconnected give-up.
func TestReconnectGivesUp(t *testing.T) {
	a, b := net.Pipe()
	attempts := 0
	dial := func() (net.Conn, error) {
		attempts++
		return nil, errors.New("unreachable")
	}
	c := NewClient(a, "mgr",
		WithDialer(dial),
		WithReconnect(ReconnectConfig{BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, MaxAttempts: 3}))
	t.Cleanup(func() { c.Close() })
	b.Close()

	select {
	case _, ok := <-c.Events():
		if ok {
			t.Fatal("unexpected event")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("events channel never closed after give-up")
	}
	err := c.Delegate(context.Background(), "x", "func main() {}")
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("post-give-up error = %v, want ErrDisconnected", err)
	}
	if attempts != 3 {
		t.Fatalf("dial attempts = %d, want 3", attempts)
	}
}

// TestClosePendingRoundTrip: Close unblocks an in-flight request with
// the typed ErrClientClosed.
func TestClosePendingRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	c := NewClient(a, "mgr")
	// b reads the request but never answers.
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	errCh := make(chan error, 1)
	go func() {
		errCh <- c.Delegate(context.Background(), "x", "func main() {}")
	}()
	// Wait until the request is registered before closing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		n := len(c.pending)
		c.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never became pending")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("pending round-trip got %v, want ErrClientClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close left the round-trip blocked")
	}
	if err := c.Close(); err != nil {
		t.Fatal("second Close errored")
	}
}

// TestDrainGrace: with WithDrainGrace, cancelling the serve context
// lets an in-flight request finish and be answered before the
// connection dies, and the drain is counted.
func TestDrainGrace(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(proc, nil, WithDrainGrace(2*time.Second))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, l)
	}()
	c, err := Dial(l.Addr().String(), "mgr")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer rcancel()
	// A slow eval in flight while the server begins draining: the reply
	// must still arrive.
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Eval(rctx, `func main() { sleep(300); return 9; }`, "main")
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach dispatch
	cancel()                          // begin drain
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("in-flight request lost during drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drained reply never arrived")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server never finished draining")
	}
	if got := counterValue(srv.reg, "rds_conns_drained_total"); got != 1 {
		t.Fatalf("rds_conns_drained_total = %d, want 1", got)
	}
}
