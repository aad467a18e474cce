package rds

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mbd/internal/ber"
)

// FuzzDecodeFrame feeds raw wire bytes through the framing layer and
// the BER message decoder: neither may panic, over-allocate past the
// frame limit, or accept a message that fails to re-encode into an
// equivalent one. Seeds beyond the committed corpus cover each op and
// the framing edge cases (empty, truncated, oversized length prefix).
func FuzzDecodeFrame(f *testing.F) {
	for _, m := range []*Message{
		{Op: OpDelegate, Seq: 1, Principal: "mgr", Name: "health", Lang: "dpl", Payload: []byte("func main() {}")},
		{Op: OpInstantiate, Seq: 2, Name: "health", Entry: "main", Args: []string{"1", "s:x", "true"}},
		{Op: OpReply, Seq: 3, OK: false, Error: "no", Diags: []DiagRec{{Code: "DPL007", Severity: "error", Msg: "m", Line: 1, Col: 2}}},
		{Op: OpEvent, Name: "h#1", Entry: "report", Payload: []byte("0.9"), TimeMS: 12},
		{Op: OpQuery, Seq: 4, Digest: bytes.Repeat([]byte{0xAA}, 16)},
		{Op: OpStats, Seq: 5, Entry: "metrics"},
	} {
		frame, err := m.AppendFrame(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// The federation peer operations (committed corpus: seed_peer_*).
	for _, m := range peerSeedMessages() {
		frame, err := m.AppendFrame(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// The two retired peer codes, which the decoder must refuse.
	for _, op := range []Op{OpPeerJoin + 1, OpPeerDelegate + 1} {
		frame, err := (&Message{Op: op, Seq: 11, Principal: "federation", Name: "lan-a"}).AppendFrame(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// Batched event frames (committed corpus: seed_event_batch_*).
	for _, s := range eventBatchSeeds(f) {
		f.Add(s.frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 2, 0x30})             // truncated body
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x30}) // length past MaxFrame

	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		m, err := Decode(body)
		if err != nil {
			return
		}
		// Anything the decoder accepts must survive the encode side
		// unchanged — the server re-frames decoded messages.
		re, err := m.AppendFrame(nil)
		if err != nil {
			t.Fatalf("accepted message does not re-frame: %v", err)
		}
		body2, err := ReadFrame(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("re-framed message unreadable: %v", err)
		}
		m2, err := Decode(body2)
		if err != nil {
			t.Fatalf("re-encoded message undecodable: %v", err)
		}
		if !reflect.DeepEqual(m2, m) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", m2, m)
		}
	})
}

// eventBatchSeeds are batched event frames, by corpus file: DPI, kind
// and principal changing mid-batch, an empty principal after a
// non-empty one, negative and large time deltas, and a record list one
// past maxRecords (of empty records, which Decode counts before it
// reads any).
func eventBatchSeeds(t testing.TB) []corpusSeed {
	var seeds []corpusSeed
	for _, s := range []struct {
		name string
		m    *Message
	}{
		{"seed_event_batch_changes", &Message{Op: OpEvent, Name: "a#1", Entry: "report", Payload: []byte("1"), TimeMS: 40, Principal: "mgr",
			Records: []Event{
				{DPI: "a#1", Kind: "report", Payload: "2", TimeMS: 40, Principal: "mgr"},
				{DPI: "b#7", Kind: "report", Payload: "3", TimeMS: 41, Principal: "mgr"},
				{DPI: "b#7", Kind: "notify", Payload: "4", TimeMS: 41, Principal: "mgr"},
				{DPI: "b#7", Kind: "notify", Payload: "5", TimeMS: 41, Principal: "ops"},
				{DPI: "a#1", Kind: "exit", Payload: "", TimeMS: 90, Principal: "mgr"},
			}}},
		{"seed_event_batch_empty_principal", &Message{Op: OpEvent, Name: "r#1", Entry: "report", Payload: []byte("x"), TimeMS: 7, Principal: "mgr",
			Records: []Event{
				{DPI: "r#1", Kind: "report", Payload: "y", TimeMS: 7, Principal: ""},
				{DPI: "r#1", Kind: "report", Payload: "z", TimeMS: 7, Principal: "mgr"},
			}}},
		{"seed_event_batch_time_delta", &Message{Op: OpEvent, Name: "t#1", Entry: "log", TimeMS: 1 << 40,
			Records: []Event{
				{DPI: "t#1", Kind: "log", Payload: "back", TimeMS: 5},
				{DPI: "t#1", Kind: "log", Payload: "neg", TimeMS: -300},
				{DPI: "t#1", Kind: "log", Payload: "fwd", TimeMS: 1 << 50},
			}}},
	} {
		frame, err := s.m.AppendFrame(nil)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, corpusSeed{s.name, frame})
	}
	c := ber.Encoder(nil)
	root := (&Message{Op: OpEvent, Name: "f#1"}).visitHead(&c)
	list := c.Begin(ber.TagSequence)
	for i := 0; i <= maxRecords; i++ {
		c.End(c.Begin(ber.TagSequence))
	}
	c.End(list)
	c.End(root)
	frame := append([]byte{0, 0, 0, 0}, c.Bytes()...)
	if err := endFrame(frame, 0); err != nil {
		t.Fatal(err)
	}
	return append(seeds, corpusSeed{"seed_event_batch_past_bound", frame})
}

// corpusSeed is one committed FuzzDecodeFrame input and its file name.
type corpusSeed struct {
	name  string
	frame []byte
}

// TestWriteEventBatchFuzzCorpus regenerates the committed
// FuzzDecodeFrame seed files for batched event frames. Guarded so `go
// test` never rewrites testdata by default:
//
//	RDS_WRITE_CORPUS=1 go test ./internal/rds -run TestWriteEventBatchFuzzCorpus
func TestWriteEventBatchFuzzCorpus(t *testing.T) {
	if os.Getenv("RDS_WRITE_CORPUS") == "" {
		t.Skip("set RDS_WRITE_CORPUS=1 to rewrite the committed corpus")
	}
	for _, s := range eventBatchSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.frame)
		if err := os.WriteFile(filepath.Join("testdata", "fuzz", "FuzzDecodeFrame", s.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecodeEventRecords: Decode accepts up to maxRecords event records
// on an OpEvent message and refuses one more, records on any other op,
// bytes after the record list, an empty list, and malformed records.
func TestDecodeEventRecords(t *testing.T) {
	recs := func(n int) []Event { return make([]Event, n) }
	if _, err := Decode((&Message{Op: OpEvent, Records: recs(maxRecords)}).AppendEncode(nil)); err != nil {
		t.Fatalf("%d records refused: %v", maxRecords, err)
	}
	for name, m := range map[string]*Message{
		"past the bound": {Op: OpEvent, Records: recs(maxRecords + 1)},
		"non-event op":   {Op: OpReply, Records: recs(1)},
	} {
		if _, err := Decode(m.AppendEncode(nil)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// event builds an OpEvent envelope whose contents end with tail.
	head := (&Message{Op: OpEvent}).AppendEncode(nil)
	event := func(tail ...byte) []byte {
		contents := append(append([]byte{}, head[2:]...), tail...)
		return append([]byte{0x30, byte(len(contents))}, contents...)
	}
	// A record is SEQUENCE { payload, delta, [0] dpi, [1] kind, [2] principal }.
	for name, b := range map[string][]byte{
		"trailing bytes":      event(0x30, 0x07, 0x30, 0x05, 0x04, 0x00, 0x02, 0x01, 0x00, 0x05, 0x00),
		"empty list":          event(0x30, 0x00),
		"fields out of order": event(0x30, 0x0d, 0x30, 0x0b, 0x04, 0x00, 0x02, 0x01, 0x00, 0x81, 0x01, 'k', 0x80, 0x01, 'd'),
		"repeated field":      event(0x30, 0x0d, 0x30, 0x0b, 0x04, 0x00, 0x02, 0x01, 0x00, 0x80, 0x01, 'd', 0x80, 0x01, 'd'),
		"unknown tag":         event(0x30, 0x0a, 0x30, 0x08, 0x04, 0x00, 0x02, 0x01, 0x00, 0x83, 0x01, 'x'),
		"integer payload":     event(0x30, 0x08, 0x30, 0x06, 0x02, 0x01, 0x00, 0x02, 0x01, 0x00),
		"string delta":        event(0x30, 0x07, 0x30, 0x05, 0x04, 0x00, 0x04, 0x01, 0x00),
	} {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	got, err := Decode(event(0x30, 0x0d, 0x30, 0x0b, 0x04, 0x01, 'p', 0x02, 0x01, 0xff, 0x80, 0x01, 'd', 0x82, 0x00))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Event{{DPI: "d", Payload: "p", TimeMS: -1}}; !reflect.DeepEqual(got.Records, want) {
		t.Fatalf("records = %+v, want %+v", got.Records, want)
	}
}
