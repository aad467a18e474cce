package rds

import (
	"bytes"
	"testing"
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
		if m2.Op != m.Op || m2.Seq != m.Seq || m2.Name != m.Name ||
			m2.Entry != m.Entry || !bytes.Equal(m2.Payload, m.Payload) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", m2, m)
		}
	})
}
