package rds

import (
	"bytes"
	"testing"
)

// TestAppendFrameAllocs locks in the allocation-free event/reply encode
// path: framing a message into a warm reused buffer must not allocate.
func TestAppendFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	msg := &Message{
		Op: OpEvent, Seq: 42, Principal: "mgr", Name: "watch#1",
		Entry: "report", Payload: []byte("ifInOctets=123456"), TimeMS: 99,
	}
	var buf []byte
	for i := 0; i < 4; i++ { // grow the buffer to steady state
		out, err := msg.AppendFrame(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	}
	n := testing.AllocsPerRun(100, func() {
		out, err := msg.AppendFrame(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	})
	if n != 0 {
		t.Errorf("AppendFrame allocates %v times per frame, want 0", n)
	}
}

// TestVerifyAllocs: verifying a signed 1 KB delegation allocates
// nothing: the encoding the digest covers goes into a pooled buffer and
// MD5 runs on the stack.
func TestVerifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	a := NewAuthenticator()
	a.SetSecret("mgr", "s3cret")
	m := &Message{Op: OpDelegate, Seq: 9, Principal: "mgr", Name: "health", Lang: "dpl",
		Payload: bytes.Repeat([]byte("var x = 1;\n"), 94)}
	if err := a.Sign(m); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if err := a.Verify(m); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("Verify allocates %v times per message, want 0", n)
	}
}

// TestVerifyRefusesAnyChangedByte: a signed frame with any one byte of
// its body changed either fails to decode or fails verification. Every
// message has one encoding, so a changed byte that still decodes is a
// different message under a digest of the old one.
func TestVerifyRefusesAnyChangedByte(t *testing.T) {
	a := NewAuthenticator()
	a.SetSecret("mgr", "s3cret")
	m := &Message{Op: OpSend, Seq: 300, Principal: "mgr", Name: "agent#1", Payload: []byte("ping 17"), Args: []string{"a"}}
	if err := a.Sign(m); err != nil {
		t.Fatal(err)
	}
	body := m.Encode()
	if got, err := Decode(body); err != nil || a.Verify(got) != nil {
		t.Fatalf("stock message refused: %v", err)
	}
	for i := range body {
		for _, flip := range []byte{0x01, 0x80} {
			b := bytes.Clone(body)
			b[i] ^= flip
			if got, err := Decode(b); err == nil && a.Verify(got) == nil {
				t.Fatalf("byte %d ^ %#x: changed message %+v verified", i, flip, got)
			}
		}
	}
}
