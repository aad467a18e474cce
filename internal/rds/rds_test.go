package rds

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mbd/internal/elastic"
)

func TestMessageRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Op: OpDelegate, Seq: 1, Principal: "mgr", Name: "health", Lang: "dpl", Payload: []byte("func main() {}")},
		{Op: OpInstantiate, Seq: 2, Principal: "mgr", Name: "health", Entry: "main", Args: []string{"1", "2.5", "s:text", "true"}},
		{Op: OpControl, Seq: 3, Name: "health#1", Entry: "suspend"},
		{Op: OpReply, Seq: 3, OK: true, Name: "health#1"},
		{Op: OpReply, Seq: 4, OK: false, Error: "no such instance"},
		{Op: OpEvent, Name: "health#1", Entry: "report", Payload: []byte("0.93"), TimeMS: 12345},
		{Op: OpQuery, Seq: 5, Principal: "viewer", Digest: bytes.Repeat([]byte{0xAA}, 16)},
		{Op: OpReply, Seq: 5, OK: true, Infos: []InfoRec{
			{ID: "a#1", DP: "a", Entry: "main", State: "running", Steps: 991},
			{ID: "a#2", DP: "a", Entry: "main", State: "failed", Err: "boom", Result: ""},
		}},
	}
	for _, m := range msgs {
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("decode %s: %v", m.Op, err)
		}
		if got.Op != m.Op || got.Seq != m.Seq || got.Principal != m.Principal ||
			got.Name != m.Name || got.Entry != m.Entry || got.Lang != m.Lang ||
			!bytes.Equal(got.Payload, m.Payload) || got.OK != m.OK ||
			got.Error != m.Error || got.TimeMS != m.TimeMS ||
			len(got.Args) != len(m.Args) || len(got.Infos) != len(m.Infos) ||
			!bytes.Equal(got.Digest, m.Digest) {
			t.Fatalf("round-trip %s:\n got %+v\nwant %+v", m.Op, got, m)
		}
		for i := range m.Args {
			if got.Args[i] != m.Args[i] {
				t.Fatalf("arg %d mismatch", i)
			}
		}
		for i := range m.Infos {
			if got.Infos[i] != m.Infos[i] {
				t.Fatalf("info %d: got %+v want %+v", i, got.Infos[i], m.Infos[i])
			}
		}
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	good := (&Message{Op: OpQuery, Seq: 9}).Encode()
	for i := 1; i < len(good); i++ {
		if _, err := Decode(good[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	if _, err := Decode([]byte{0x30, 0x03, 0x02, 0x01, 0x63}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

// writeFrame frames m onto w the way the server's writers do.
func writeFrame(w io.Writer, m *Message) error {
	frame, err := m.AppendFrame(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

func TestFraming(t *testing.T) {
	var buf bytes.Buffer
	msgs := []*Message{
		{Op: OpEvent, Payload: []byte("a")},
		{Op: OpReply},
		{Op: OpSend, Payload: bytes.Repeat([]byte{7}, 100000)},
	}
	for _, m := range msgs {
		if err := writeFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: %d vs %d bytes", len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("read from empty stream succeeded")
	}
	// Oversized frame header rejected without allocation.
	var hdr bytes.Buffer
	hdr.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&hdr); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if err := writeFrame(&buf, &Message{Op: OpSend, Payload: make([]byte, MaxFrame+1)}); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestFrameReassemblyUnderChunking(t *testing.T) {
	// Property: however the byte stream is chunked, frames reassemble.
	r := rand.New(rand.NewSource(5))
	var wire bytes.Buffer
	var want [][]byte
	for i := 0; i < 20; i++ {
		m := &Message{Op: OpEvent, Payload: make([]byte, r.Intn(300))}
		r.Read(m.Payload)
		want = append(want, m.Encode())
		if err := writeFrame(&wire, m); err != nil {
			t.Fatal(err)
		}
	}
	// Feed through a reader that returns 1..7 bytes at a time.
	chunked := &chunkReader{data: wire.Bytes(), r: r}
	for i, w := range want {
		got, err := ReadFrame(chunked)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("frame %d corrupted", i)
		}
	}
}

type chunkReader struct {
	data []byte
	off  int
	r    *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.off >= len(c.data) {
		return 0, errors.New("EOF")
	}
	n := 1 + c.r.Intn(7)
	if n > len(p) {
		n = len(p)
	}
	if c.off+n > len(c.data) {
		n = len(c.data) - c.off
	}
	copy(p, c.data[c.off:c.off+n])
	c.off += n
	return n, nil
}

func TestMD5SignVerify(t *testing.T) {
	a := NewAuthenticator()
	a.SetSecret("mgr", "s3cret")
	m := &Message{Op: OpDelegate, Seq: 1, Principal: "mgr", Name: "x", Payload: []byte("body")}
	if err := a.Sign(m); err != nil {
		t.Fatal(err)
	}
	if len(m.Digest) != 16 {
		t.Fatalf("digest length %d", len(m.Digest))
	}
	if err := a.Verify(m); err != nil {
		t.Fatal(err)
	}
	// Survives an encode/decode cycle.
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(got); err != nil {
		t.Fatalf("verify after round-trip: %v", err)
	}
	// Tampering breaks it.
	got.Payload = []byte("evil")
	if err := a.Verify(got); !errors.Is(err, ErrBadDigest) {
		t.Fatalf("tampered message verified: %v", err)
	}
	// Unknown principals and wrong secrets fail.
	m2 := &Message{Op: OpQuery, Principal: "stranger"}
	if err := a.Sign(m2); !errors.Is(err, ErrUnknownPrincipal) {
		t.Fatalf("err = %v", err)
	}
	b := NewAuthenticator()
	b.SetSecret("mgr", "different")
	if err := b.Verify(m); !errors.Is(err, ErrBadDigest) {
		t.Fatalf("wrong secret verified: %v", err)
	}
	// Nil authenticator accepts and signs nothing.
	var nilAuth *Authenticator
	if err := nilAuth.Sign(m2); err != nil {
		t.Fatal(err)
	}
	if err := nilAuth.Verify(&Message{}); err != nil {
		t.Fatal(err)
	}
	if err := NewAuthenticator().Verify(m); !errors.Is(err, ErrUnknownPrincipal) {
		t.Fatalf("unknown principal verified: %v", err)
	}
}

// startServer runs an RDS server over a real TCP listener and returns a
// connected client.
func startServer(t *testing.T, proc *elastic.Process, auth *Authenticator, copts ...ClientOption) *Client {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(proc, auth)
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
	c, err := Dial(l.Addr().String(), "mgr", copts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestEndToEndDelegation(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	c := startServer(t, proc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := c.Subscribe(ctx, ""); err != nil {
		t.Fatal(err)
	}
	src := `
func main(n) {
	var total = 0;
	for (var i = 1; i <= n; i += 1) { total += i; }
	report(sprintf("sum=%d", total));
	return total;
}`
	if err := c.Delegate(ctx, "summer", src); err != nil {
		t.Fatal(err)
	}
	id, err := c.Instantiate(ctx, "summer", "main", "100")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, "summer#") {
		t.Fatalf("dpi id = %q", id)
	}
	var report, exit *Event
	deadline := time.After(10 * time.Second)
	for report == nil || exit == nil {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatal("event stream closed early")
			}
			e := ev
			switch ev.Kind {
			case "report":
				report = &e
			case "exit":
				exit = &e
			}
		case <-deadline:
			t.Fatal("events never arrived")
		}
	}
	if report.Payload != "sum=5050" || report.DPI != id {
		t.Fatalf("report = %+v", report)
	}
	if exit.Payload != "5050" {
		t.Fatalf("exit = %+v", exit)
	}
	infos, err := c.Query(ctx, id)
	if err != nil || len(infos) != 1 || infos[0].State != "exited" || infos[0].Result != "5050" {
		t.Fatalf("query = %+v, %v", infos, err)
	}
}

func TestEndToEndControlAndSend(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	c := startServer(t, proc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	src := `func main() { var m = recv(-1); return "got:" + m; }`
	if err := c.Delegate(ctx, "waiter", src); err != nil {
		t.Fatal(err)
	}
	id, err := c.Instantiate(ctx, "waiter", "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(ctx, id, "ping"); err != nil {
		t.Fatal(err)
	}
	d, _ := proc.Lookup(id)
	v, err := d.Wait(ctx)
	if err != nil || v != "got:ping" {
		t.Fatalf("result = %v, %v", v, err)
	}

	// Terminate a second instance remotely.
	id2, err := c.Instantiate(ctx, "waiter", "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Control(ctx, id2, "terminate"); err != nil {
		t.Fatal(err)
	}
	d2, _ := proc.Lookup(id2)
	if _, err := d2.Wait(ctx); err == nil {
		t.Fatal("terminated instance returned nil error")
	}
}

func TestEndToEndErrorsAreRemoteErrors(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	c := startServer(t, proc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	var re *RemoteError
	err := c.Delegate(ctx, "bad", `func main() { rm("/"); }`)
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "allowed host function set") {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Instantiate(ctx, "ghost", "main"); !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
	if err := c.DeleteDP(ctx, "ghost"); !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
}

func TestEndToEndMD5Auth(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	serverAuth := NewAuthenticator()
	serverAuth.SetSecret("mgr", "topsecret")

	goodAuth := NewAuthenticator()
	goodAuth.SetSecret("mgr", "topsecret")
	c := startServer(t, proc, serverAuth, WithAuth(goodAuth))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Delegate(ctx, "ok", `func main() { return 1; }`); err != nil {
		t.Fatalf("authenticated delegate failed: %v", err)
	}

	// A client with the wrong secret is refused.
	badAuth := NewAuthenticator()
	badAuth.SetSecret("mgr", "wrong")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(proc, serverAuth)
	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	go func() { _ = srv.Serve(sctx, l) }()
	bad, err := Dial(l.Addr().String(), "mgr", WithAuth(badAuth))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	var re *RemoteError
	if err := bad.Delegate(ctx, "x", `func main() {}`); !errors.As(err, &re) ||
		!strings.Contains(re.Msg, "digest") {
		t.Fatalf("wrong secret: %v", err)
	}
	// An unsigned client against an authenticating server is refused too.
	unsigned, err := Dial(l.Addr().String(), "mgr")
	if err != nil {
		t.Fatal(err)
	}
	defer unsigned.Close()
	if err := unsigned.Delegate(ctx, "x", `func main() {}`); err == nil {
		t.Fatal("unsigned request accepted")
	}
	if srv.stats.authFails.Load() == 0 {
		t.Fatal("auth failures not counted")
	}
}

func TestSubscribeFilter(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	c := startServer(t, proc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := c.Subscribe(ctx, "wanted"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"wanted", "other"} {
		if err := c.Delegate(ctx, name, `func main() { report("from "+dpiid()); }`); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Instantiate(ctx, name, "main"); err != nil {
			t.Fatal(err)
		}
	}
	// Collect events for a short window; only "wanted#" events may appear.
	timeout := time.After(2 * time.Second)
	var got []Event
collect:
	for {
		select {
		case ev := <-c.Events():
			got = append(got, ev)
			if len(got) >= 2 { // report + exit from wanted#1
				break collect
			}
		case <-timeout:
			break collect
		}
	}
	if len(got) == 0 {
		t.Fatal("no events received")
	}
	for _, ev := range got {
		if !strings.HasPrefix(ev.DPI, "wanted#") {
			t.Fatalf("filter leaked event from %s", ev.DPI)
		}
	}
}

func TestClientParallelRequests(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	c := startServer(t, proc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Delegate(ctx, "sq", `func main(x) { return x * x; }`); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		go func() {
			_, err := c.Instantiate(ctx, "sq", "main", "7")
			errs <- err
		}()
	}
	for i := 0; i < 20; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	infos, err := c.Query(ctx, "")
	if err != nil || len(infos) != 20 {
		t.Fatalf("query all = %d, %v", len(infos), err)
	}
}

func TestClientClosedBehavior(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	c := startServer(t, proc, nil)
	ctx := context.Background()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Delegate(ctx, "x", "func main() {}"); err == nil {
		t.Fatal("request on closed client succeeded")
	}
	if err := c.Close(); err != nil {
		t.Fatal("double close errored")
	}
	// Events channel closes.
	select {
	case _, ok := <-c.Events():
		if ok {
			t.Fatal("unexpected event")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("events channel never closed")
	}
}

func TestParseArg(t *testing.T) {
	cases := []struct {
		in   string
		want any
	}{
		{"42", int64(42)},
		{"-7", int64(-7)},
		{"2.5", 2.5},
		{"true", true},
		{"false", false},
		{"nil", nil},
		{"hello", "hello"},
		{"s:42", "42"},
		{"s:", ""},
	}
	for _, c := range cases {
		if got := ParseArg(c.in); got != c.want {
			t.Errorf("ParseArg(%q) = %v (%T), want %v", c.in, got, got, c.want)
		}
	}
}

func TestEndToEndRemoteEvaluation(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	c := startServer(t, proc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// One round trip: translate, run, return, retain nothing.
	out, err := c.Eval(ctx, `func main(n) { var s = 0; for (var i = 1; i <= n; i += 1) { s += i; } return s; }`, "main", "100")
	if err != nil || out != "5050" {
		t.Fatalf("Eval = %q, %v", out, err)
	}
	if proc.Repository().Len() != 0 {
		t.Fatal("Eval left a DP in the repository")
	}
	infos, err := proc.Query("mgr", "")
	if err != nil || len(infos) != 0 {
		t.Fatalf("Eval left instances: %v", infos)
	}
	// The translator still guards one-shot evaluations.
	var re *RemoteError
	if _, err := c.Eval(ctx, `func main() { sh("x"); }`, "main"); !errors.As(err, &re) ||
		!strings.Contains(re.Msg, "allowed host function set") {
		t.Fatalf("err = %v", err)
	}
}

// readCounter counts the Read calls a client makes on its connection:
// on a TCP socket each one is a syscall.
type readCounter struct {
	net.Conn
	reads atomic.Int64
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestClientReadsFramesBuffered: a peer that answers one Send with a
// burst of 128 event frames and the reply, batched into one write as
// the server's pump batches them, must cost the client fewer reads than
// frames. Unbuffered, every frame is a header read plus a body read.
func TestClientReadsFramesBuffered(t *testing.T) {
	const events = 128
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	peerErr := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			peerErr <- err
			return
		}
		defer conn.Close()
		body, err := ReadFrame(conn)
		if err != nil {
			peerErr <- err
			return
		}
		req, err := Decode(body)
		if err != nil {
			peerErr <- err
			return
		}
		var burst []byte
		var last Event
		for i := 0; i < events; i++ {
			ev := &Message{Op: OpEvent, Name: "rows#1", Entry: "report", Payload: []byte(strconv.Itoa(i)), TimeMS: int64(i)}
			if burst, err = ev.AppendFrameAfter(burst, last); err != nil {
				peerErr <- err
				return
			}
			last = ev.tail()
		}
		if burst, err = (&Message{Op: OpReply, Seq: req.Seq, OK: true}).AppendFrame(burst); err != nil {
			peerErr <- err
			return
		}
		_, err = conn.Write(burst)
		peerErr <- err
		// Hold the connection open until the test is done reading.
		_, _ = ReadFrame(conn)
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	counted := &readCounter{Conn: conn}
	c := NewClient(counted, "mgr")
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Send(ctx, "rows#1", "go"); err != nil {
		t.Fatal(err)
	}
	if err := <-peerErr; err != nil {
		t.Fatalf("peer: %v", err)
	}
	for i := 0; i < events; i++ {
		select {
		case ev := <-c.Events():
			if ev.Payload != strconv.Itoa(i) {
				t.Fatalf("event %d carries %q: frames out of order or lost", i, ev.Payload)
			}
		case <-ctx.Done():
			t.Fatalf("only %d of %d events arrived", i, events)
		}
	}
	// The reply follows the events on the wire, so by now every frame of
	// the burst has been read.
	if frames, reads := int64(events+1), counted.reads.Load(); reads >= frames {
		t.Fatalf("%d frames cost %d reads, want fewer reads than frames", frames, reads)
	}
	if _, in := c.Bytes(); in == 0 {
		t.Fatal("Bytes() no longer accounts frames read through the buffer")
	}
}
