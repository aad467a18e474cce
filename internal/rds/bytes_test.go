package rds

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"mbd/internal/elastic"
)

// countingWriter counts what it passes on to w.
type countingWriter struct {
	w io.Writer
	n *atomic.Uint64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(uint64(n))
	return n, err
}

// TestByteCountsMatchSocket: the byte counts the client reports
// (Client.Bytes, what the benchmark's wire_bytes_per_op reads) and the
// server's rds_bytes_in_total and rds_bytes_out_total are the bytes on
// the socket. Signed requests, their replies and a subscribed event
// stream, batched into frames of several events, cross a TCP relay
// that counts each direction.
func TestByteCountsMatchSocket(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	auth := NewAuthenticator()
	auth.SetSecret("mgr", "s3cret")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(proc, auth)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, l)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})

	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rl.Close() })
	var up, down atomic.Uint64 // client to server, server to client
	go func() {
		in, err := rl.Accept()
		if err != nil {
			return
		}
		defer in.Close()
		out, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return
		}
		defer out.Close()
		go func() { _, _ = io.Copy(countingWriter{out, &up}, in) }()
		_, _ = io.Copy(countingWriter{in, &down}, out)
	}()

	c, err := Dial(rl.Addr().String(), "mgr", WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Subscribe(ctx, ""); err != nil {
		t.Fatal(err)
	}
	const rows = 200
	if err := c.Delegate(ctx, "rows", fmt.Sprintf(`
func main() {
	var m = recv(-1);
	for (var i = 0; i < %d; i += 1) { report(m + " row " + str(i)); }
}`, rows)); err != nil {
		t.Fatal(err)
	}
	id, err := c.Instantiate(ctx, "rows", "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(ctx, id, "go"); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < rows; {
		select {
		case ev := <-c.Events():
			if ev.Kind == "report" {
				n++
			}
		case <-ctx.Done():
			t.Fatalf("%d of %d reports arrived", n, rows)
		}
	}
	if _, err := c.Query(ctx, id); err != nil {
		t.Fatal(err)
	}
	if sent, writes := srv.stats.eventsSent.Load(), srv.stats.writes.Load(); writes >= sent {
		t.Fatalf("%d events took %d writes: the stream was not batched", sent, writes)
	}
	// Each count lands after its own write or read returns, so they
	// agree once the traffic has stopped.
	var out, in uint64
	for {
		out, in = c.Bytes()
		if out == up.Load() && in == down.Load() && srv.stats.bytesIn.Load() == out && srv.stats.bytesOut.Load() == in {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatalf("client out %d in %d, relay up %d down %d, server in %d out %d",
				out, in, up.Load(), down.Load(), srv.stats.bytesIn.Load(), srv.stats.bytesOut.Load())
		case <-time.After(time.Millisecond):
		}
	}
}
