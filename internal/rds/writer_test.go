package rds

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mbd/internal/elastic"
	"mbd/internal/obs"
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
// until it has sent or dropped every one, and returns what went on the
// wire.
func pumpQueued(t *testing.T, evs []elastic.Event) (*Server, *captureConn) {
	t.Helper()
	s := &Server{reg: obs.NewRegistry()}
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
	for s.stats.eventsSent.Load()+s.stats.eventsDropped.Load() < uint64(len(evs)) {
		if time.Now().After(deadline) {
			t.Fatalf("pump sent %d of %d events", s.stats.eventsSent.Load(), len(evs))
		}
		time.Sleep(time.Millisecond)
	}
	q.close()
	<-done
	return s, conn
}

// wireEvent is the event a subscriber receives for ev.
func wireEvent(ev elastic.Event) Event {
	return Event{DPI: ev.DPI, Kind: ev.Kind.String(), Payload: ev.Payload,
		TimeMS: ev.Time.Milliseconds(), Principal: ev.Principal}
}

// batchMessage is the one OpEvent message carrying evs in order.
func batchMessage(evs []Event) *Message {
	m := &Message{Op: OpEvent, Name: evs[0].DPI, Entry: evs[0].Kind, TimeMS: evs[0].TimeMS, Principal: evs[0].Principal}
	if evs[0].Payload != "" {
		m.Payload = []byte(evs[0].Payload)
	}
	if len(evs) > 1 {
		m.Records = evs[1:]
	}
	return m
}

// wireEvents reads every frame in wire, checks that each one is exactly
// AppendFrame of the message it decodes to, and returns the events the
// frames carry, in order.
func wireEvents(t *testing.T, wire []byte) (evs []Event, frames int) {
	t.Helper()
	r := bytes.NewReader(wire)
	for r.Len() > 0 {
		body, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Decode(body)
		if err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		re, err := m.AppendFrame(nil)
		if err != nil || !bytes.Equal(re[4:], body) {
			t.Fatalf("frame %d is not AppendFrame of its message (%v)", frames, err)
		}
		frames++
		evs = append(evs, Event{DPI: m.Name, Kind: m.Entry, Payload: string(m.Payload), TimeMS: m.TimeMS, Principal: m.Principal})
		evs = append(evs, m.Records...)
	}
	return evs, frames
}

// sameEvents fails t unless got is exactly what a subscriber should
// receive for evs.
func sameEvents(t *testing.T, got []Event, evs []elastic.Event) {
	t.Helper()
	if len(got) != len(evs) {
		t.Fatalf("got %d events, want %d", len(got), len(evs))
	}
	for i, ev := range evs {
		if got[i] != wireEvent(ev) {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], wireEvent(ev))
		}
	}
}

// TestPumpFramesByteIdentical: the pump writes a drained batch as
// exactly the bytes Message.AppendFrame produces for the one message
// carrying the batch, including an empty principal after a non-empty
// one, a payload long enough for a BER long-form length and a time
// earlier than the event before.
func TestPumpFramesByteIdentical(t *testing.T) {
	evs := []elastic.Event{
		{DPI: "rows#1", Kind: elastic.EventReport, Payload: "1", Time: 5 * time.Millisecond, Principal: "mgr"},
		{DPI: "rows#1", Kind: elastic.EventNotify, Payload: strings.Repeat("x", 300), Time: time.Second},
		{DPI: "rows#2", Kind: elastic.EventExit, Payload: "", Principal: "ops"},
	}
	s, conn := pumpQueued(t, evs)
	var batch []Event
	for _, ev := range evs {
		batch = append(batch, wireEvent(ev))
	}
	want, err := batchMessage(batch).AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(conn.wire.Bytes(), want) {
		t.Fatalf("pump wrote %d bytes, AppendFrame gives %d (or contents differ)", conn.wire.Len(), len(want))
	}
	if got := s.stats.bytesOut.Load(); got != uint64(len(want)) {
		t.Fatalf("bytesOut = %d, want %d", got, len(want))
	}
	if got := s.stats.eventsSent.Load(); got != uint64(len(evs)) {
		t.Fatalf("eventsSent = %d, want %d events", got, len(evs))
	}
}

// TestEventFrameOfOneUnchanged: a batch of one event goes out as the
// one-message frame AppendFrame writes for it, which carries only the
// fields that are set. The hex pins those frames: 84, 335 and 31 bytes,
// where the envelope of every field wrote 102, 351 and 51.
func TestEventFrameOfOneUnchanged(t *testing.T) {
	for _, c := range []struct {
		ev  elastic.Event
		hex string
	}{
		{elastic.Event{DPI: "tableagent#1", Kind: elastic.EventReport, Payload: "n42 7 1.3.6.1.2.1.2.2.1.10.4 = 29912352",
			Time: 123456 * time.Millisecond, Principal: "bench"},
			"00000050304e020109810562656e6368830c7461626c656167656e74233184067265706f727486276e3432203720312e332e362e312e322e312e322e322e312e31302e34203d203239393132333532890301e240"},
		{elastic.Event{DPI: "rows#1", Kind: elastic.EventNotify, Payload: strings.Repeat("x", 300), Time: time.Second},
			"0000014b308201470201098306726f7773233184066e6f746966798682012c" + strings.Repeat("78", 300) + "890203e8"},
		{elastic.Event{DPI: "rows#2", Kind: elastic.EventExit, Time: -3 * time.Millisecond, Principal: "ops"},
			"0000001b301902010981036f70738306726f777323328404657869748901fd"},
	} {
		want, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		conn := &captureConn{}
		(&connWriter{conn: conn}).events(&Server{}, []elastic.Event{c.ev})
		if !bytes.Equal(conn.wire.Bytes(), want) {
			t.Errorf("%s: pump frame\n %x\nwant\n %x", c.ev.DPI, conn.wire.Bytes(), want)
		}
		if got, _ := batchMessage([]Event{wireEvent(c.ev)}).AppendFrame(nil); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendFrame\n %x\nwant\n %x", c.ev.DPI, got, want)
		}
	}
}

// TestPumpRecordsCarryOnlyChanges: while time, DPI, kind and principal
// stay put, each record after a frame's first event costs its 2-byte
// header, 3 bytes for the length of the payload prefix it shares with
// the event before, and the rest of its payload with a 2-byte header;
// a 128-row burst leaves as one frame.
func TestPumpRecordsCarryOnlyChanges(t *testing.T) {
	evs := make([]elastic.Event, 128)
	for i := range evs {
		evs[i] = elastic.Event{DPI: "tableagent#1", Kind: elastic.EventReport,
			Payload: fmt.Sprintf("n42 %d 1.3.6.1.2.1.2.2.1.10.%d = %d", i, 1+i%4, 29912345+i),
			Time:    123456 * time.Millisecond, Principal: "bench"}
	}
	_, conn := pumpQueued(t, evs)
	got, frames := wireEvents(t, conn.wire.Bytes())
	if frames != 1 {
		t.Fatalf("128 rows took %d frames, want 1", frames)
	}
	sameEvents(t, got, evs)
	one, err := batchMessage([]Event{wireEvent(evs[0])}).AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for i, ev := range evs[1:] {
		prev := evs[i].Payload
		shared := 0
		for shared < len(prev) && prev[shared] == ev.Payload[shared] {
			shared++
		}
		records += 2 + 3 + 2 + len(ev.Payload) - shared
	}
	// 4 bytes for the record list's header, 2 more for the envelope's
	// longer length.
	if want := len(one) + records + 4 + 2; conn.wire.Len() != want {
		t.Fatalf("burst is %d bytes, want %d", conn.wire.Len(), want)
	}
}

// TestPumpSplitsFramesAt64KB: a batch larger than maxEventFrame leaves
// as several frames in one write, none much past the bound, carrying
// every event in order.
func TestPumpSplitsFramesAt64KB(t *testing.T) {
	evs := make([]elastic.Event, 200)
	for i := range evs {
		evs[i] = elastic.Event{DPI: "dump#" + strconv.Itoa(i%3), Kind: elastic.EventReport,
			Payload: strings.Repeat(strconv.Itoa(i%10), 1000), Time: time.Duration(i) * time.Millisecond, Principal: "mgr"}
	}
	s, conn := pumpQueued(t, evs)
	got, frames := wireEvents(t, conn.wire.Bytes())
	if frames < 4 || conn.writes != 1 {
		t.Fatalf("200 KB batch: %d frames in %d writes, want >= 4 frames in 1 write", frames, conn.writes)
	}
	for r := bytes.NewReader(conn.wire.Bytes()); r.Len() > 0; {
		// The two closing lengths may add a few bytes past the bound.
		if body, err := ReadFrame(r); err != nil || len(body) > maxEventFrame+8 {
			t.Fatalf("frame of %d bytes (%v), bound %d", len(body), err, maxEventFrame)
		}
	}
	if n := s.stats.eventsSent.Load(); n != uint64(len(evs)) {
		t.Fatalf("eventsSent = %d, want %d", n, len(evs))
	}
	sameEvents(t, got, evs)
}

// TestPumpFramesAtMostMaxRecords: a batch of more events than one frame
// may carry records for leaves as several frames the decoder accepts.
func TestPumpFramesAtMostMaxRecords(t *testing.T) {
	evs := make([]elastic.Event, 2*maxRecords+90)
	for i := range evs {
		evs[i] = elastic.Event{DPI: "tiny#1", Kind: elastic.EventLog, Payload: strconv.Itoa(i)}
	}
	conn := &captureConn{}
	(&connWriter{conn: conn}).events(&Server{}, evs)
	got, frames := wireEvents(t, conn.wire.Bytes())
	if frames != 3 {
		t.Fatalf("%d events took %d frames, want 3", len(evs), frames)
	}
	sameEvents(t, got, evs)
}

// TestOversizedEventCounted: an event too large to frame is dropped and
// counted (EventsDropped and rds_events_dropped_total for its
// principal), and the rest of its batch is still delivered.
func TestOversizedEventCounted(t *testing.T) {
	evs := []elastic.Event{
		{DPI: "big#1", Kind: elastic.EventReport, Payload: "before", Principal: "mgr"},
		{DPI: "big#1", Kind: elastic.EventReport, Payload: strings.Repeat("x", MaxFrame+1), Principal: "hog"},
		{DPI: "big#1", Kind: elastic.EventReport, Payload: "after", Principal: "mgr"},
		{DPI: "big#1", Kind: elastic.EventExit, Payload: "0", Principal: "mgr"},
	}
	s, conn := pumpQueued(t, evs)
	if sent, dropped := s.stats.eventsSent.Load(), s.stats.eventsDropped.Load(); dropped != 1 || sent != 3 {
		t.Fatalf("sent %d, dropped %d; want 3 sent, 1 dropped", sent, dropped)
	}
	got, _ := wireEvents(t, conn.wire.Bytes())
	sameEvents(t, got, []elastic.Event{evs[0], evs[2], evs[3]})
	if v := counterValue(s.reg, `rds_events_dropped_total{principal="hog"}`); v != 1 {
		t.Fatalf(`rds_events_dropped_total{principal="hog"} = %d, want 1`, v)
	}
}

// counterValue reads one series from reg.
func counterValue(reg *obs.Registry, series string) uint64 {
	for _, s := range reg.Flatten() {
		if s.Name == series {
			return s.Value()
		}
	}
	return 0
}

// TestPumpDeliversBatchesToClient: batches written by the pump reach an
// rds.Client's Events as exactly the emitted sequence, field for field:
// mixed DPIs, kinds and principals (including ""), times out of order,
// a batch split across frames and an oversized event mid-batch.
func TestPumpDeliversBatchesToClient(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	c := NewClient(cliConn, "mgr")
	defer c.Close()
	s := &Server{reg: obs.NewRegistry()}
	cw := &connWriter{conn: srvConn}

	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	mixed := []elastic.Event{
		{DPI: "a#1", Kind: elastic.EventReport, Payload: "r1", Time: ms(5), Principal: "mgr"},
		{DPI: "a#1", Kind: elastic.EventReport, Payload: "r2", Time: ms(5), Principal: "mgr"},
		{DPI: "b#1", Kind: elastic.EventNotify, Payload: "n", Time: ms(3)},
		{DPI: "b#1", Kind: elastic.EventLog, Payload: "", Time: ms(3)},
		{DPI: "a#1", Kind: elastic.EventReport, Payload: "r3", Time: ms(1 << 40), Principal: "ops"},
		{DPI: "a#1", Kind: elastic.EventExit, Payload: "0", Time: ms(-7), Principal: ""},
	}
	var split []elastic.Event
	for i := 0; i < 100; i++ {
		split = append(split, elastic.Event{DPI: "s#" + strconv.Itoa(i%2), Kind: elastic.EventReport,
			Payload: strings.Repeat("y", 1500+i), Time: ms(100 - i), Principal: []string{"mgr", "", "ops"}[i%3]})
	}
	huge := []elastic.Event{
		{DPI: "h#1", Kind: elastic.EventReport, Payload: "pre", Principal: "mgr"},
		{DPI: "h#1", Kind: elastic.EventReport, Payload: strings.Repeat("z", MaxFrame), Principal: "mgr"},
		{DPI: "h#2", Kind: elastic.EventNotify, Payload: "post", Principal: ""},
	}
	one := []elastic.Event{{DPI: "z#9", Kind: elastic.EventExit, Payload: "done", Time: ms(2), Principal: "mgr"}}

	var want []elastic.Event
	for _, batch := range [][]elastic.Event{mixed, split, huge, one} {
		for _, ev := range batch {
			if len(ev.Payload) < MaxFrame {
				want = append(want, ev)
			}
		}
	}
	got := make(chan []Event, 1)
	go func() {
		var evs []Event
		for len(evs) < len(want) {
			evs = append(evs, <-c.Events())
		}
		got <- evs
	}()
	for _, batch := range [][]elastic.Event{mixed, split, huge, one} {
		cw.events(s, batch)
	}
	select {
	case evs := <-got:
		sameEvents(t, evs, want)
	case <-time.After(10 * time.Second):
		t.Fatal("client did not receive every event")
	}
	if sent, dropped := s.stats.eventsSent.Load(), s.stats.eventsDropped.Load(); dropped != 1 || sent != uint64(len(want)) {
		t.Fatalf("sent %d, dropped %d; want %d sent, 1 dropped", sent, dropped, len(want))
	}
	if n := c.EventsDropped(); n != 0 {
		t.Fatalf("client dropped %d events", n)
	}
}

// TestClientCountsDroppedEvents: a client whose Events channel nobody
// reads keeps the first 256 of 300 events and counts the other 44 in
// EventsDropped.
func TestClientCountsDroppedEvents(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	c := NewClient(cliConn, "mgr")
	defer c.Close()
	cw := &connWriter{conn: srvConn}
	for b := 0; b < 3; b++ {
		batch := make([]elastic.Event, 100)
		for i := range batch {
			batch[i] = elastic.Event{DPI: "flood#1", Kind: elastic.EventReport, Payload: strconv.Itoa(b*100 + i)}
		}
		cw.events(&Server{}, batch)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.EventsDropped() < 44 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := c.EventsDropped(); n != 44 {
		t.Fatalf("EventsDropped = %d, want 44", n)
	}
	if n := len(c.Events()); n != 256 {
		t.Fatalf("Events holds %d, want 256", n)
	}
	if ev := <-c.Events(); ev.Payload != "0" {
		t.Fatalf("first kept event %q, want the first sent", ev.Payload)
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
