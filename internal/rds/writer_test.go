package rds

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mbd/internal/elastic"
)

// captureConn records every Write a connection writer issues.
type captureConn struct {
	net.Conn
	mu     sync.Mutex
	wire   bytes.Buffer
	writes int
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	return c.wire.Write(p)
}

// pumpQueued queues evs, runs the event pump over a capture connection
// until it has drained them, and returns what went on the wire.
func pumpQueued(t *testing.T, evs []elastic.Event) (*Server, *captureConn) {
	t.Helper()
	s := &Server{}
	conn := &captureConn{}
	q := newEventQueue(subscriberQueueDepth, nil)
	for _, ev := range evs {
		if _, dropped := q.push(ev); dropped {
			t.Fatal("queue overflowed")
		}
	}
	done := make(chan struct{})
	go s.pumpEvents(q, &connWriter{conn: conn}, done)
	deadline := time.Now().Add(10 * time.Second)
	for s.stats.eventsSent.Load() < uint64(len(evs)) {
		if time.Now().After(deadline) {
			t.Fatalf("pump sent %d of %d events", s.stats.eventsSent.Load(), len(evs))
		}
		time.Sleep(time.Millisecond)
	}
	q.close()
	<-done
	return s, conn
}

// TestPumpFramesByteIdentical: the batched pump writes exactly the bytes
// Message.AppendFrame produces for the same events, including an empty
// principal and a payload long enough for a BER long-form length.
func TestPumpFramesByteIdentical(t *testing.T) {
	evs := []elastic.Event{
		{DPI: "rows#1", Kind: elastic.EventReport, Payload: "1", Time: 5 * time.Millisecond, Principal: "mgr"},
		{DPI: "rows#1", Kind: elastic.EventNotify, Payload: strings.Repeat("x", 300), Time: time.Second},
		{DPI: "rows#2", Kind: elastic.EventExit, Payload: "", Principal: "ops"},
	}
	s, conn := pumpQueued(t, evs)
	var want []byte
	for _, ev := range evs {
		m := &Message{Op: OpEvent, Name: ev.DPI, Entry: ev.Kind.String(), Payload: []byte(ev.Payload),
			TimeMS: ev.Time.Milliseconds(), Principal: ev.Principal}
		var err error
		if want, err = m.AppendFrame(want); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(conn.wire.Bytes(), want) {
		t.Fatalf("pump wrote %d bytes, AppendFrame gives %d (or contents differ)", conn.wire.Len(), len(want))
	}
	if got := s.stats.bytesOut.Load(); got != uint64(len(want)) {
		t.Fatalf("bytesOut = %d, want %d", got, len(want))
	}
}

// TestPumpBatchesWrites: a burst of 128 queued events leaves in at most
// two socket writes, and rds_writes_total counts them.
func TestPumpBatchesWrites(t *testing.T) {
	evs := make([]elastic.Event, 128)
	for i := range evs {
		evs[i] = elastic.Event{DPI: "rows#1", Kind: elastic.EventReport, Payload: strconv.Itoa(i), Principal: "mgr"}
	}
	s, conn := pumpQueued(t, evs)
	if conn.writes > 2 {
		t.Fatalf("128 events took %d writes, want <= 2", conn.writes)
	}
	if got := s.stats.writes.Load(); got != uint64(conn.writes) {
		t.Fatalf("writes counter = %d, socket saw %d", got, conn.writes)
	}
}

// discardConn accepts and forgets every Write.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestEventBatchAllocFree: once its buffer has grown, writing a batch
// of events allocates nothing — no per-event Message, payload copy or
// frame scratch.
func TestEventBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	evs := make([]elastic.Event, 128)
	for i := range evs {
		evs[i] = elastic.Event{DPI: "rows#1", Kind: elastic.EventReport,
			Payload: strings.Repeat("v", 40+i), Principal: "mgr"}
	}
	s := &Server{}
	cw := &connWriter{conn: discardConn{}}
	if n := testing.AllocsPerRun(20, func() { cw.events(s, evs) }); n != 0 {
		t.Fatalf("event batch: %.1f allocs, want 0", n)
	}
}

// TestWriterReleasesLargeBuffer: after a 1 MB reply the connection
// writer keeps at most maxRetainedOut (64 KB) of output buffer.
func TestWriterReleasesLargeBuffer(t *testing.T) {
	s := &Server{}
	conn := &captureConn{}
	cw := &connWriter{conn: conn}
	cw.reply(s, &Message{Op: OpReply, Seq: 1, OK: true, Payload: make([]byte, 1<<20)})
	if conn.wire.Len() < 1<<20 {
		t.Fatalf("reply not written: %d bytes", conn.wire.Len())
	}
	if c := cap(cw.out); c > 64<<10 {
		t.Fatalf("writer retains %d bytes after a 1 MB reply", c)
	}
	cw.reply(s, &Message{Op: OpReply, Seq: 2, OK: true})
	if c := cap(cw.out); c == 0 {
		t.Fatal("small reply buffer not retained")
	}
}

// hugeViews answers every view query with a document too large to frame.
type hugeViews struct{}

func (hugeViews) StatusJSON() ([]byte, error)       { return []byte("{}"), nil }
func (hugeViews) DefineJSON(string) ([]byte, error) { return []byte("{}"), nil }
func (hugeViews) QueryJSON(string) ([]byte, error)  { return make([]byte, MaxFrame+1), nil }

// TestOversizedReplyAnswered: a reply too large for one frame comes back
// as an error reply under the request's Seq instead of being dropped,
// and the connection keeps serving.
func TestOversizedReplyAnswered(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(proc, nil, WithViewHandler(hugeViews{}))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx, l) }()
	t.Cleanup(func() { cancel(); <-done })
	c, err := Dial(l.Addr().String(), "mgr")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	rctx, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer rcancel()
	_, err = c.ViewQuery(rctx, "big")
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "exceeds limit") {
		t.Fatalf("oversized reply: err = %v, want a remote frame-limit error", err)
	}
	if _, err := c.ViewStatus(rctx); err != nil {
		t.Fatalf("connection unusable after oversized reply: %v", err)
	}
}
