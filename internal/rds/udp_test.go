package rds

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mbd/internal/elastic"
)

// startPacketServer serves proc on a loopback datagram socket and
// returns a client dialed to it as "udp://addr", and that addr.
func startPacketServer(t *testing.T, proc *elastic.Process, auth *Authenticator, copts ...ClientOption) (*Client, string) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(proc, auth)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.ServePacket(ctx, pc)
	}()
	t.Cleanup(func() { cancel(); <-done })
	addr := pc.LocalAddr().String()
	c := dialUDP(t, addr, copts...)
	return c, addr
}

// dialUDP dials a datagram client to addr and closes it at cleanup.
func dialUDP(t *testing.T, addr string, copts ...ClientOption) *Client {
	t.Helper()
	c, err := Dial("udp://"+addr, "mgr", copts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestUDPDelegationLifecycle(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	c, _ := startPacketServer(t, proc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	if err := c.Delegate(ctx, "echo", `func main() { return "got:" + recv(-1); }`); err != nil {
		t.Fatal(err)
	}
	id, err := c.Instantiate(ctx, "echo", "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(ctx, id, "over-udp"); err != nil {
		t.Fatal(err)
	}
	d, _ := proc.Lookup(id)
	v, err := d.Wait(ctx)
	if err != nil || v != "got:over-udp" {
		t.Fatalf("result = %v, %v", v, err)
	}
	infos, err := c.Query(ctx, id)
	if err != nil || len(infos) != 1 || infos[0].State != "exited" {
		t.Fatalf("query = %+v, %v", infos, err)
	}
	if err := c.DeleteDP(ctx, "echo"); err != nil {
		t.Fatal(err)
	}
	out, err := c.Eval(ctx, `func main() { return 6 * 7; }`, "main")
	if err != nil || out != "42" {
		t.Fatalf("eval = %q, %v", out, err)
	}
	// Datagram requests take the same request path as the stream's:
	// counted by op, timed.
	var sb strings.Builder
	if err := proc.Obs().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`rds_requests_total{op="eval"} 1`, "rds_op_duration_seconds_count 6"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("metrics after UDP eval missing %q:\n%s", want, sb.String())
		}
	}
	// Control over UDP.
	if err := c.Delegate(ctx, "spin", `func main() { recv(-1); }`); err != nil {
		t.Fatal(err)
	}
	id2, err := c.Instantiate(ctx, "spin", "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Control(ctx, id2, "terminate"); err != nil {
		t.Fatal(err)
	}
	d2, _ := proc.Lookup(id2)
	if _, err := d2.Wait(ctx); err == nil {
		t.Fatal("terminate over UDP had no effect")
	}
}

func TestUDPSubscribeRefused(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	c, _ := startPacketServer(t, proc, nil)
	ctx := context.Background()
	err := c.Subscribe(ctx, "")
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "stream transport") {
		t.Fatalf("err = %v", err)
	}
}

func TestUDPAuth(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	serverAuth := NewAuthenticator()
	serverAuth.SetSecret("mgr", "k")
	good := NewAuthenticator()
	good.SetSecret("mgr", "k")
	c, addr := startPacketServer(t, proc, serverAuth, WithAuth(good))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Delegate(ctx, "a", `func main() {}`); err != nil {
		t.Fatal(err)
	}
	// Unsigned datagrams are answered with an auth failure.
	unsigned := dialUDP(t, addr, WithPacketRetries(0), WithPacketTimeout(time.Second))
	if err := unsigned.Delegate(ctx, "b", `func main() {}`); err == nil {
		t.Fatal("unsigned datagram accepted")
	}
}

func TestUDPOversizedDelegateRejectedClientSide(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	c, _ := startPacketServer(t, proc, nil)
	big := strings.Repeat("// padding\n", 10000) + "func main() {}"
	err := c.Delegate(context.Background(), "big", big)
	if err == nil || !strings.Contains(err.Error(), "datagram limit") {
		t.Fatalf("err = %v", err)
	}
}

// lossyRelay forwards datagrams between clients and the server at
// server: the nth request (reply false) or reply (reply true) is sent
// copies(reply, n) times, so 0 drops it and 2 duplicates it. It returns
// the address clients dial.
func lossyRelay(t *testing.T, server string, copies func(reply bool, n int) int) string {
	t.Helper()
	relay, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	up, err := net.Dial("udp", server)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relay.Close(); up.Close() })
	var client atomic.Value // net.Addr of the last requester
	go func() {
		buf := make([]byte, maxDatagram)
		for n := 0; ; n++ {
			size, err := up.Read(buf)
			if err != nil {
				return
			}
			addr, _ := client.Load().(net.Addr)
			for i := copies(true, n); i > 0 && addr != nil; i-- {
				_, _ = relay.WriteTo(buf[:size], addr)
			}
		}
	}()
	go func() {
		buf := make([]byte, maxDatagram)
		for n := 0; ; n++ {
			size, addr, err := relay.ReadFrom(buf)
			if err != nil {
				return
			}
			client.Store(addr)
			for i := copies(false, n); i > 0; i-- {
				_, _ = up.Write(buf[:size])
			}
		}
	}()
	return relay.LocalAddr().String()
}

func TestUDPRetransmissionSurvivesLoss(t *testing.T) {
	// A lossy "network" swallows the first request datagram; an
	// idempotent Query is retransmitted through it.
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	_, server := startPacketServer(t, proc, nil)
	dropFirstRequest := func(reply bool, n int) int {
		if !reply && n == 0 {
			return 0
		}
		return 1
	}
	c := dialUDP(t, lossyRelay(t, server, dropFirstRequest),
		WithPacketTimeout(200*time.Millisecond), WithPacketRetries(3))
	cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ccancel()
	if _, err := c.Query(cctx, ""); err != nil {
		t.Fatalf("query through lossy relay: %v", err)
	}
}

// TestUDPLostReplyNotRetransmitted: a mutating op is sent once. Its lost
// reply is not answered with a second copy, and a late duplicate reply
// to an earlier request is skipped rather than re-sent over; either way
// one Instantiate starts exactly one DPI.
func TestUDPLostReplyNotRetransmitted(t *testing.T) {
	for _, tc := range []struct {
		name          string
		delegateReply int // copies of each reply
		instReply     int
	}{
		{"lost", 1, 0},
		{"duplicated", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proc := elastic.NewProcess(elastic.Config{})
			t.Cleanup(proc.Stop)
			direct, server := startPacketServer(t, proc, nil)
			copies := func(reply bool, n int) int {
				switch {
				case !reply:
					return 1
				case n == 0:
					return tc.delegateReply
				}
				return tc.instReply
			}
			c := dialUDP(t, lossyRelay(t, server, copies),
				WithPacketTimeout(200*time.Millisecond), WithPacketRetries(3))
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := c.Delegate(ctx, "park", `func main() { recv(-1); }`); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Instantiate(ctx, "park", "main"); (err == nil) != (tc.instReply > 0) {
				t.Fatalf("instantiate = %v with %d reply copies", err, tc.instReply)
			}
			infos, err := direct.Query(ctx, "")
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) != 1 {
				t.Fatalf("one UDP instantiate left %d DPIs, want 1: %+v", len(infos), infos)
			}
		})
	}
}

func TestUDPOversizedReplyReportedAsError(t *testing.T) {
	// The request fits a datagram but the reply would not: the server
	// must substitute an in-band error rather than truncate or drop.
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	c, _ := startPacketServer(t, proc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	src := `func main() {
		var s = "0123456789abcdef";
		var i = 0;
		while (i < 13) { s = s + s; i += 1; }
		return s;
	}`
	_, err := c.Eval(ctx, src, "main")
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "datagram limit") {
		t.Fatalf("oversized reply err = %v, want in-band datagram-limit error", err)
	}
	// The exchange machinery is still healthy afterwards.
	out, err := c.Eval(ctx, `func main() { return 6 * 7; }`, "main")
	if err != nil || out != "42" {
		t.Fatalf("follow-up eval = %q, %v", out, err)
	}
}

func TestUDPGarbageDatagramDropped(t *testing.T) {
	// Undecodable datagrams are dropped without a reply and without
	// wedging the serve loop.
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	c, addr := startPacketServer(t, proc, nil)
	raw, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("\xff\xfenot ber at all")); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	buf := make([]byte, maxDatagram)
	if n, err := raw.Read(buf); err == nil {
		t.Fatalf("garbage datagram got a %d-byte reply, want silence", n)
	}
	// A well-formed request on the same server still round-trips.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := c.Eval(ctx, `func main() { return "ok"; }`, "main")
	if err != nil || out != "ok" {
		t.Fatalf("eval after garbage = %q, %v", out, err)
	}
}

func TestUDPServerCloseMidRequest(t *testing.T) {
	// The server goes away between attempts: the client burns its
	// retries and surfaces a transport error, not a hang.
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(proc, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.ServePacket(ctx, pc)
	}()
	c := dialUDP(t, pc.LocalAddr().String(),
		WithPacketTimeout(200*time.Millisecond), WithPacketRetries(2))
	cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ccancel()
	if out, err := c.Eval(cctx, `func main() { return "up"; }`, "main"); err != nil || out != "up" {
		t.Fatalf("eval while up = %q, %v", out, err)
	}
	cancel()
	<-done // the socket is closed; requests now go nowhere
	start := time.Now()
	_, err = c.Eval(cctx, `func main() { return "down"; }`, "main")
	if err == nil {
		t.Fatal("eval against a closed server succeeded")
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("err = %v, want retransmission-exhausted error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("failure took %s, want bounded by timeout*retries", elapsed)
	}
}

// TestUDPDatagramIsBareEncoding: a datagram client's request is exactly
// Message.Encode() of the request, with no frame prefix, so ServePacket
// decodes it as sent.
func TestUDPDatagramIsBareEncoding(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	c := dialUDP(t, pc.LocalAddr().String(), WithPacketRetries(0), WithPacketTimeout(100*time.Millisecond))
	go func() { _, _ = c.Query(context.Background(), "echo#1") }()
	_ = pc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, maxDatagram)
	n, _, err := pc.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := (&Message{Op: OpQuery, Seq: 1, Name: "echo#1", Principal: "mgr"}).Encode()
	if !bytes.Equal(buf[:n], want) {
		t.Fatalf("datagram = %x, want Message.Encode() = %x", buf[:n], want)
	}
}
