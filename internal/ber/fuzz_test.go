package ber

import (
	"bytes"
	"reflect"
	"testing"

	"mbd/internal/oid"
)

// node is one decoded element: its tag and whichever value its tag
// reads as, or its children for a constructed tag.
type node struct {
	tag  byte
	i    int64
	u    uint64
	s    []byte
	oid  oid.OID
	kids []node
}

// walk decodes every element r holds, re-encoding each one into w as it
// goes: INTEGER through ReadInt, the SNMP counters through ReadUint,
// OCTET STRING through ReadString, OBJECT IDENTIFIER through ReadOID,
// NULL through ReadNull, constructed tags through Seq (recursively), and
// anything else as a raw TLV.
func walk(r *Reader, w *Writer) ([]node, error) {
	var out []node
	for !r.Empty() {
		tag, err := r.PeekTag()
		if err != nil {
			return nil, err
		}
		n := node{tag: tag}
		switch {
		case tag == TagInteger:
			if _, n.i, err = r.ReadInt(); err == nil {
				w.AppendInt(tag, n.i)
			}
		case tag == TagCounter32 || tag == TagGauge32 || tag == TagTimeTicks || tag == TagCounter64:
			if _, n.u, err = r.ReadUint(); err == nil {
				w.AppendUint(tag, n.u)
			}
		case tag == TagOctetString:
			if _, n.s, err = r.ReadString(); err == nil {
				w.AppendString(tag, n.s)
			}
		case tag == TagOID:
			if n.oid, err = r.ReadOID(); err == nil {
				w.AppendOID(n.oid)
			}
		case tag == TagNull:
			if err = r.ReadNull(); err == nil {
				w.AppendNull()
			}
		case tag&0x20 != 0: // constructed
			var sub Reader
			if sub, err = r.Seq(tag); err == nil {
				mark := w.BeginSeq(tag)
				n.kids, err = walk(&sub, w)
				w.EndSeq(mark)
			}
		default:
			if _, n.s, err = r.ReadTLV(); err == nil {
				w.AppendTLV(tag, n.s)
			}
		}
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// FuzzBERReader feeds raw bytes to Reader, the decoder under every SNMP
// message and RDS header: it may refuse them but never panic, and what
// it accepts re-encodes through Writer into bytes that decode to the
// same values and re-encode to themselves.
func FuzzBERReader(f *testing.F) {
	var w Writer
	seq := w.BeginSeq(TagSequence)
	w.AppendInt(TagInteger, -129)
	w.AppendString(TagOctetString, []byte("public"))
	pdu := w.BeginSeq(0xA1)
	w.AppendOID(oid.OID{1, 3, 6, 1, 2, 1, 1, 3, 0})
	w.AppendNull()
	w.AppendUint(TagCounter64, 1<<63)
	w.AppendUint(TagTimeTicks, 12345)
	w.AppendTLV(TagIPAddress, []byte{10, 0, 0, 1})
	w.EndSeq(pdu)
	w.AppendString(0x82, nil) // a context tag, as RDS event records use
	w.EndSeq(seq)
	f.Add(w.Bytes())
	f.Add([]byte{0x30, 0x81, 0x03, 0x02, 0x01, 0x00})             // long form for a short length
	f.Add([]byte{0x02, 0x02, 0x00, 0x01})                         // non-minimal INTEGER
	f.Add([]byte{0x06, 0x03, 0x80, 0x80, 0x01})                   // non-minimal OID arc
	f.Add([]byte{0x04, 0x84, 0xFF, 0xFF, 0xFF, 0xFF})             // length past the input
	f.Add([]byte{0x06, 0x05, 0x90, 0x80, 0x80, 0x80, 0x50})       // first sub-identifier past 32 bits
	f.Add([]byte{0x30, 0x06, 0x30, 0x04, 0x30, 0x02, 0x05, 0x00}) // nested sequences

	f.Fuzz(func(t *testing.T, data []byte) {
		var w1 Writer
		got, err := walk(NewReader(data), &w1)
		if err != nil {
			return
		}
		var w2 Writer
		again, err := walk(NewReader(w1.Bytes()), &w2)
		if err != nil {
			t.Fatalf("re-encoding %x of accepted %x does not decode: %v", w1.Bytes(), data, err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", again, got)
		}
		if !bytes.Equal(w2.Bytes(), w1.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point: %x then %x", w1.Bytes(), w2.Bytes())
		}
	})
}
