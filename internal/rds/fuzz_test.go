package rds

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mbd/internal/ber"
)

// FuzzDecodeFrame feeds raw wire bytes through the framing layer and
// the BER message decoder: neither may panic, over-allocate past the
// frame limit, or accept a message that fails to re-encode into the
// very bytes it was decoded from. Bytes past the first frame are read
// as the frame that follows it on a connection, decoded against the
// first frame's last event, and held to the same rule under that
// context. Seeds beyond the committed corpus cover each op, each
// optional envelope field present and absent, and the framing edge
// cases (empty, truncated, oversized length prefix).
func FuzzDecodeFrame(f *testing.F) {
	for _, m := range []*Message{
		{Op: OpDelegate, Seq: 1, Principal: "mgr", Name: "health", Lang: "dpl", Payload: []byte("func main() {}")},
		{Op: OpInstantiate, Seq: 2, Name: "health", Entry: "main", Args: []string{"1", "s:x", "true"}},
		{Op: OpReply, Seq: 3, OK: false, Error: "no", Diags: []DiagRec{{Code: "DPL007", Severity: "error", Msg: "m", Line: 1, Col: 2}}},
		{Op: OpEvent, Name: "h#1", Entry: "report", Payload: []byte("0.9"), TimeMS: 12},
		{Op: OpQuery, Seq: 4, Digest: bytes.Repeat([]byte{0xAA}, 16)},
		{Op: OpStats, Seq: 5, Entry: "metrics"},
		{Op: OpQuery},
		{Op: OpReply, Seq: 6, OK: true},
		{Op: OpReply, Seq: 1 << 31, Principal: "p", Name: "n", Entry: "e", Lang: "l", Payload: []byte{0}, OK: true, Error: "x", TimeMS: -1,
			Args: []string{""}, Infos: []InfoRec{{ID: "a#1", Steps: 1 << 63}}, Diags: []DiagRec{{Line: -1}}},
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
		r := bytes.NewReader(data)
		var last Event
		for range 2 {
			body, err := ReadFrame(r)
			if err != nil {
				return
			}
			m := reframes(t, body, last)
			if m == nil {
				return
			}
			if m.Op == OpEvent {
				last = m.tail()
			}
		}
	})
}

// reframes decodes body as the frame after last on its connection and,
// when the decoder accepts it, holds the message to the one-encoding
// rule under the same context: it re-frames into body exactly, and
// those bytes decode back to it. It returns the message, or nil when
// the decoder refuses body.
func reframes(t *testing.T, body []byte, last Event) *Message {
	m, err := decodeAfter(body, &last)
	if err != nil {
		return nil
	}
	// Anything the decoder accepts must survive the encode side
	// unchanged — the server re-frames decoded messages.
	re, err := m.AppendFrameAfter(nil, last)
	if err != nil {
		t.Fatalf("accepted message does not re-frame: %v", err)
	}
	// One encoding per message: the digest a receiver recomputes
	// covers the bytes the sender signed.
	if !bytes.Equal(re[4:], body) {
		t.Fatalf("accepted %x re-encodes as %x", body, re[4:])
	}
	body2, err := ReadFrame(bytes.NewReader(re))
	if err != nil {
		t.Fatalf("re-framed message unreadable: %v", err)
	}
	m2, err := decodeAfter(body2, &last)
	if err != nil {
		t.Fatalf("re-encoded message undecodable: %v", err)
	}
	if !reflect.DeepEqual(m2, m) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", m2, m)
	}
	return m
}

// decodeStream decodes every frame in data as one connection carries
// them, each after the last event of the event frame before, failing at
// the first frame it refuses.
func decodeStream(data []byte) error {
	r := bytes.NewReader(data)
	var last Event
	for {
		body, err := ReadFrame(r)
		if err != nil {
			return err
		}
		m, err := decodeAfter(body, &last)
		if err != nil {
			return err
		}
		if m.Op == OpEvent {
			last = m.tail()
		}
		if r.Len() == 0 {
			return nil
		}
	}
}

// eventBatchSeeds are batched event frames, by corpus file: DPI, kind
// and principal changing mid-batch, an empty principal after a
// non-empty one, negative, large and zero time deltas, a chain of
// payloads sharing prefixes, two frames of one connection, the second
// coded against the first (eventChainSeed), and a record list one past
// maxRecords (of empty records, which Decode counts before it reads
// any).
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
		{"seed_event_batch_front_coded", &Message{Op: OpEvent, Name: "w#1", Entry: "report", Payload: []byte("if.1 = 10"), TimeMS: 3,
			Records: []Event{
				{DPI: "w#1", Kind: "report", Payload: "if.1 = 11", TimeMS: 3},
				{DPI: "w#1", Kind: "report", Payload: "if.1 = 11", TimeMS: 3},
				{DPI: "w#1", Kind: "report", Payload: "if.1", TimeMS: 4},
				{DPI: "w#1", Kind: "report", Payload: "if.12 = 7", TimeMS: 4},
				{DPI: "w#1", Kind: "report", Payload: "of", TimeMS: 4},
				{DPI: "w#1", Kind: "report", Payload: "", TimeMS: 4},
			}}},
	} {
		frame, err := s.m.AppendFrame(nil)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, corpusSeed{s.name, frame})
	}
	seeds = append(seeds, eventChainSeed(t))
	c := ber.Encoder(nil)
	root := (&Message{Op: OpEvent, Name: "f#1"}).visitHead(&c, nil)
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
	return append(seeds, corpusSeed{"refused_event_batch_past_bound", frame})
}

// eventChainSeed is two event frames as one connection carries them:
// the first reports twice from one DPI, and the second, coded against
// the first's last event, changes DPI at the same time (no delta) and
// carries an empty principal after a non-empty one, then moves time
// back.
func eventChainSeed(t testing.TB) corpusSeed {
	first := &Message{Op: OpEvent, Name: "p#1", Entry: "report", Payload: []byte("1"), TimeMS: 50, Principal: "mgr",
		Records: []Event{{DPI: "p#1", Kind: "report", Payload: "2", TimeMS: 51, Principal: "mgr"}}}
	second := &Message{Op: OpEvent, Name: "q#2", Entry: "report", Payload: []byte("3"), TimeMS: 51,
		Records: []Event{{DPI: "q#2", Kind: "exit", TimeMS: 49}}}
	frame, err := first.AppendFrame(nil)
	if err == nil {
		frame, err = second.AppendFrameAfter(frame, first.tail())
	}
	if err != nil {
		t.Fatal(err)
	}
	return corpusSeed{"seed_event_chain", frame}
}

// corpusSeed is one committed FuzzDecodeFrame input and its file name.
type corpusSeed struct {
	name  string
	frame []byte
}

// corpusDir holds FuzzDecodeFrame's committed corpus. A seed_* file
// is a frame the decoder accepts, a refused_* file one it must refuse;
// other names are inputs the fuzzer found.
var corpusDir = filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")

// peerSeedNames are the corpus file names of peerSeedMessages, in order.
var peerSeedNames = []string{"seed_peer_join", "seed_peer_delegate", "seed_peer_fanout_reply", "seed_peer_sync", "seed_peer_bundle_stage", "seed_peer_bundle_activate"}

// corpusSeeds are the corpus files TestWriteFuzzCorpus writes: one
// current-format frame per request op and reply shape, the peer
// operations and the batched event frames. The committed corpus also
// keeps refused_* frames no writer makes: a frame of the envelope that
// carried all 14 fields (refused_old_envelope), a retired op code
// (refused_retired_op) and the framing edge cases.
func corpusSeeds(t testing.TB) []corpusSeed {
	digest := bytes.Repeat([]byte{0xAA}, 16)
	var seeds []corpusSeed
	for _, s := range []struct {
		name string
		m    *Message
	}{
		{"seed_delegate", &Message{Op: OpDelegate, Seq: 1, Principal: "mgr", Digest: digest, Name: "health", Lang: "dpl", Payload: []byte("func main() { report(1); }")}},
		{"seed_instantiate", &Message{Op: OpInstantiate, Seq: 2, Principal: "mgr", Name: "health", Entry: "main", Args: []string{"1", "s:x", "true"}}},
		{"seed_control", &Message{Op: OpControl, Seq: 3, Principal: "mgr", Name: "health#1", Entry: "suspend"}},
		{"seed_send", &Message{Op: OpSend, Seq: 4, Principal: "mgr", Name: "health#1", Payload: []byte("n42:128")}},
		{"seed_query", &Message{Op: OpQuery, Seq: 5, Principal: "mgr", Digest: digest}},
		{"seed_delete_dp", &Message{Op: OpDeleteDP, Seq: 6, Principal: "mgr", Name: "health"}},
		{"seed_subscribe", &Message{Op: OpSubscribe, Seq: 7, Principal: "mgr", Name: "health#"}},
		{"seed_eval", &Message{Op: OpEval, Seq: 8, Principal: "mgr", Lang: "dpl", Payload: []byte("func f(x) { return x * 2; }"), Entry: "f", Args: []string{"21"}}},
		{"seed_stats", &Message{Op: OpStats, Seq: 9, Entry: "metrics"}},
		{"seed_trace", &Message{Op: OpStats, Seq: 10, Name: "64", Entry: "trace"}},
		{"seed_view", &Message{Op: OpView, Seq: 11, Principal: "mgr", Name: "ifload", Entry: "query"}},
		{"seed_event", &Message{Op: OpEvent, Name: "health#1", Entry: "report", Payload: []byte("0.9"), TimeMS: 12, Principal: "mgr"}},
		{"seed_reply_ok", &Message{Op: OpReply, Seq: 3, OK: true}},
		{"seed_reply_id", &Message{Op: OpReply, Seq: 2, OK: true, Name: "health#1"}},
		{"seed_reply_payload", &Message{Op: OpReply, Seq: 8, OK: true, Payload: []byte("42")}},
		{"seed_reply_err", &Message{Op: OpReply, Seq: 4, Error: "elastic: mailbox full: health#1"}},
		{"seed_reply_diags", &Message{Op: OpReply, Seq: 1, Error: "rejected", Diags: []DiagRec{
			{Code: "DPL007", Severity: "error", Msg: "capability snmpSet not granted", Line: 1, Col: 14},
			{Code: "DPL003", Severity: "warning", Msg: "unused variable x", Line: 2, Col: 5},
		}}},
		{"seed_infos", &Message{Op: OpReply, Seq: 5, OK: true, Infos: []InfoRec{
			{ID: "health#1", DP: "health", Entry: "main", State: "running", Steps: 1 << 20},
			{ID: "health#2", DP: "health", Entry: "main", State: "exited", Steps: 77, Result: "1"},
			{ID: "health#3", DP: "health", Entry: "main", State: "failed", Steps: 3, Err: "dpl: step quota exceeded"},
		}}},
	} {
		frame, err := s.m.AppendFrame(nil)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, corpusSeed{s.name, frame})
	}
	for i, m := range peerSeedMessages() {
		frame, err := m.AppendFrame(nil)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, corpusSeed{peerSeedNames[i], frame})
	}
	return append(seeds, eventBatchSeeds(t)...)
}

// corpusFile renders frame as a corpus file.
func corpusFile(frame []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame))
}

// TestWriteFuzzCorpus regenerates the committed FuzzDecodeFrame seed
// files (corpusSeeds). Guarded so `go test` never rewrites testdata by
// default:
//
//	RDS_WRITE_CORPUS=1 go test ./internal/rds -run TestWriteFuzzCorpus
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("RDS_WRITE_CORPUS") == "" {
		t.Skip("set RDS_WRITE_CORPUS=1 to rewrite the committed corpus")
	}
	for _, s := range corpusSeeds(t) {
		if err := os.WriteFile(filepath.Join(corpusDir, s.name), corpusFile(s.frame), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFuzzCorpusCurrent: every committed seed_* file decodes, each of
// its frames after the one before, and every refused_* one is refused, and each file the writer makes holds
// what it would write now, so a change to the format cannot leave the
// corpus seeding only the refusal path.
func TestFuzzCorpusCurrent(t *testing.T) {
	names, err := filepath.Glob(filepath.Join(corpusDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	seeds, refused := 0, 0
	for _, path := range names {
		name := filepath.Base(path)
		accept := strings.HasPrefix(name, "seed_")
		if !accept && !strings.HasPrefix(name, "refused_") {
			continue
		}
		err := decodeStream(readCorpusFile(t, path))
		switch {
		case accept && err != nil:
			t.Errorf("%s refused: %v", name, err)
		case !accept && err == nil:
			t.Errorf("%s accepted", name)
		case accept:
			seeds++
		default:
			refused++
		}
	}
	if seeds == 0 || refused == 0 {
		t.Fatalf("%d seed_* and %d refused_* files in %s", seeds, refused, corpusDir)
	}
	for _, s := range corpusSeeds(t) {
		got, err := os.ReadFile(filepath.Join(corpusDir, s.name))
		if err != nil {
			t.Errorf("%s: %v", s.name, err)
		} else if !bytes.Equal(got, corpusFile(s.frame)) {
			t.Errorf("%s is stale: RDS_WRITE_CORPUS=1 go test ./internal/rds -run TestWriteFuzzCorpus", s.name)
		}
	}
}

// readCorpusFile returns the one []byte input a corpus file holds.
func readCorpusFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-input corpus file", path)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	if lit, ok = strings.CutSuffix(lit, ")"); !ok {
		t.Fatalf("%s: not a []byte input", path)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestDecodeEventRecords: Decode accepts up to maxRecords event records
// on an OpEvent message and refuses one more, records on any other op,
// bytes after the record list, an empty list, and malformed records:
// fields out of order, repeated or unknown, a field present with the
// value its absence stands for, a shared-prefix count that is 0, past
// the payload before or shorter than it could be, and a length or an
// integer in a longer form than it needs.
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
	// event builds an OpEvent envelope with payload "ab" whose contents
	// end with tail.
	head := (&Message{Op: OpEvent, Payload: []byte("ab")}).AppendEncode(nil)
	event := func(tail ...byte) []byte {
		contents := append(append([]byte{}, head[2:]...), tail...)
		return append([]byte{0x30, byte(len(contents))}, contents...)
	}
	// A record is SEQUENCE { [3] shared, rest, delta, [0] dpi, [1] kind,
	// [2] principal }, each part optional.
	for name, b := range map[string][]byte{
		"trailing bytes":        event(0x30, 0x04, 0x30, 0x00, 0x05, 0x00),
		"empty list":            event(0x30, 0x00),
		"fields out of order":   event(0x30, 0x08, 0x30, 0x06, 0x81, 0x01, 'k', 0x80, 0x01, 'd'),
		"repeated field":        event(0x30, 0x08, 0x30, 0x06, 0x80, 0x01, 'd', 0x80, 0x01, 'd'),
		"unknown tag":           event(0x30, 0x05, 0x30, 0x03, 0x85, 0x01, 'x'),
		"rest after delta":      event(0x30, 0x08, 0x30, 0x06, 0x02, 0x01, 0x05, 0x04, 0x01, 'p'),
		"string delta":          event(0x30, 0x08, 0x30, 0x06, 0x04, 0x01, 'p', 0x04, 0x01, 0x00),
		"zero delta":            event(0x30, 0x05, 0x30, 0x03, 0x02, 0x01, 0x00),
		"empty rest":            event(0x30, 0x04, 0x30, 0x02, 0x04, 0x00),
		"DPI repeated":          event(0x30, 0x04, 0x30, 0x02, 0x80, 0x00),
		"shared count of 0":     event(0x30, 0x08, 0x30, 0x06, 0x83, 0x01, 0x00, 0x04, 0x01, 'c'),
		"shared past payload":   event(0x30, 0x05, 0x30, 0x03, 0x83, 0x01, 0x03),
		"shared negative":       event(0x30, 0x05, 0x30, 0x03, 0x83, 0x01, 0xff),
		"shared could be more":  event(0x30, 0x05, 0x30, 0x03, 0x04, 0x01, 'a'),
		"shared 1 of 2 shared":  event(0x30, 0x08, 0x30, 0x06, 0x83, 0x01, 0x01, 0x04, 0x01, 'b'),
		"long-form length":      event(0x30, 0x06, 0x30, 0x04, 0x04, 0x81, 0x01, 'c'),
		"non-minimal delta":     event(0x30, 0x06, 0x30, 0x04, 0x02, 0x02, 0x00, 0x05),
		"non-minimal shared":    event(0x30, 0x09, 0x30, 0x07, 0x83, 0x02, 0x00, 0x01, 0x04, 0x01, 'c'),
		"non-minimal list size": event(0x30, 0x81, 0x02, 0x30, 0x00),
	} {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	got, err := Decode(event(0x30, 0x15,
		0x30, 0x0c, 0x83, 0x01, 0x01, 0x04, 0x01, 'c', 0x02, 0x01, 0xff, 0x80, 0x01, 'd',
		0x30, 0x03, 0x83, 0x01, 0x02,
		0x30, 0x00))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{{DPI: "d", Payload: "ac", TimeMS: -1}, {DPI: "d", Payload: "ac", TimeMS: -1}, {DPI: "d", TimeMS: -1}}
	if !reflect.DeepEqual(got.Records, want) {
		t.Fatalf("records = %+v, want %+v", got.Records, want)
	}
}

// TestDecodeEnvelopeRefusals: every envelope field after Op is absent
// when zero, so Decode refuses one present with its zero value, fields
// out of order or repeated, and a frame in the envelope that carried
// every field, which it must not misread.
func TestDecodeEnvelopeRefusals(t *testing.T) {
	// envelope wraps fields after an OpReply's Op.
	envelope := func(fields ...byte) []byte {
		contents := append([]byte{0x02, 0x01, byte(OpReply)}, fields...)
		return append([]byte{0x30, byte(len(contents))}, contents...)
	}
	if _, err := Decode(envelope(tagSeq, 0x01, 0x07, tagOK, 0x01, 0x01)); err != nil {
		t.Fatalf("stock reply refused: %v", err)
	}
	for name, b := range map[string][]byte{
		"zero Seq":         envelope(tagSeq, 0x01, 0x00),
		"empty Principal":  envelope(tagPrincipal, 0x00),
		"empty Digest":     envelope(tagDigest, 0x00),
		"empty Payload":    envelope(tagPayload, 0x00),
		"OK of 0":          envelope(tagOK, 0x01, 0x00),
		"OK of 2":          envelope(tagOK, 0x01, 0x02),
		"OK of -127":       envelope(tagOK, 0x01, 0x81),
		"zero TimeMS":      envelope(tagTimeMS, 0x01, 0x00),
		"empty Args":       envelope(tagArgs, 0x00),
		"empty Infos":      envelope(tagInfos, 0x00),
		"empty Diags":      envelope(tagDiags, 0x00),
		"out of order":     envelope(tagOK, 0x01, 0x01, tagSeq, 0x01, 0x07),
		"repeated":         envelope(tagSeq, 0x01, 0x07, tagSeq, 0x01, 0x07),
		"untagged Seq":     envelope(0x02, 0x01, 0x07),
		"non-minimal Seq":  envelope(tagSeq, 0x02, 0x00, 0x07),
		"Seq past 32 bits": envelope(tagSeq, 0x05, 0x01, 0x00, 0x00, 0x00, 0x00),
	} {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Frames of the envelope that carried all 14 fields: a view
	// request, an OK reply and a one-event report.
	for _, h := range []string{
		"302d02011302024a3f04036d6772040004046275737904057175657279040004000201000400020100300030003000",
		"302102010802020bb80400040004000400040004000201010400020100300030003000",
		"3060020109020100040562656e63680400040c7461626c656167656e74233104067265706f7274040004276e3432203720312e332e362e312e322e312e322e322e312e31302e34203d2032393931323335320201000400020301e240300030003000",
	} {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := Decode(b); err == nil {
			t.Errorf("old-format frame %s read as %+v", h[:16], m)
		}
	}
}

// TestEventEnvelopeAfterLast: an event frame coded against the
// connection's last event leaves out what repeats it, so one that
// repeats every field but its payload is just Op and payload; decoded
// after the same event it is the message again, and refused as a frame
// that stands alone would be, which repeats last's fields. An empty
// principal after a non-empty one travels, and no other op's fields are
// ever coded against last.
func TestEventEnvelopeAfterLast(t *testing.T) {
	last := Event{DPI: "a#1", Kind: "report", TimeMS: 40, Principal: "mgr"}
	same := &Message{Op: OpEvent, Name: "a#1", Entry: "report", Payload: []byte("x"), TimeMS: 40, Principal: "mgr"}
	moved := &Message{Op: OpEvent, Name: "b#2", Entry: "report", Payload: []byte("y"), TimeMS: 39}
	for _, c := range []struct {
		m   *Message
		hex string
	}{
		{same, "000000083006020109860178"},
		{moved, "000000123010020109810083036223328601798901ff"},
	} {
		frame, err := c.m.AppendFrameAfter(nil, last)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(frame); got != c.hex {
			t.Errorf("%s after %s: frame %s, want %s", c.m.Name, last.DPI, got, c.hex)
		}
		if m, err := decodeAfter(frame[4:], &last); err != nil || !reflect.DeepEqual(m, c.m) {
			t.Errorf("%s after %s decodes to %+v (%v)", c.m.Name, last.DPI, m, err)
		}
	}
	alone, err := same.AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := decodeAfter(alone[4:], &last); err == nil {
		t.Errorf("stand-alone frame repeating the last event read as %+v", m)
	}
	reply := &Message{Op: OpReply, Seq: 1, OK: true, Name: "a#1", TimeMS: 40}
	after, err := reply.AppendFrameAfter(nil, last)
	if err != nil {
		t.Fatal(err)
	}
	if alone, _ := reply.AppendFrame(nil); !bytes.Equal(after, alone) {
		t.Errorf("reply after an event %x, alone %x", after, alone)
	}
	if m, err := decodeAfter(after[4:], &last); err != nil || !reflect.DeepEqual(m, reply) {
		t.Errorf("reply after an event decodes to %+v (%v)", m, err)
	}
}

// TestRecordPayloadBound: a frame's records may rebuild at most
// MaxFrame payload bytes between them, so a small frame of records
// each repeating a long payload is refused before its decode builds
// gigabytes, and AppendFrame will not write one.
func TestRecordPayloadBound(t *testing.T) {
	long := bytes.Repeat([]byte{'x'}, 1<<16+1)
	m := &Message{Op: OpEvent, Payload: long}
	for len(m.Records) < MaxFrame/len(long) {
		m.Records = append(m.Records, Event{Payload: string(long)})
	}
	body := m.AppendEncode(nil)
	if _, err := Decode(body); err != nil {
		t.Fatalf("records rebuilding %d bytes refused: %v", len(m.Records)*len(long), err)
	}
	m.Records = append(m.Records, Event{Payload: string(long)})
	body = m.AppendEncode(nil)
	if len(body) > 2*len(long) {
		t.Fatalf("repeated payloads take %d bytes, want them shared", len(body))
	}
	if _, err := Decode(body); err == nil {
		t.Fatalf("records rebuilding %d bytes from a %d-byte frame accepted", len(m.Records)*len(long), len(body))
	}
	if _, err := m.AppendFrame(nil); err == nil {
		t.Fatal("AppendFrame wrote records past the bound")
	}
}
