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

// walk visits the open element's elements as a tree of nodes, in
// either direction: decoding appends a node per element to *nodes,
// encoding writes *nodes back. Each element is visited by its tag:
// INTEGER through Int, the SNMP counters through Uint, OBJECT
// IDENTIFIER through OID, NULL through Null, constructed tags through
// Begin (recursively), and anything else as an octet string under its
// own tag. Decoding stops at the element's end or at a zero tag.
func walk(c *Codec, nodes *[]node) {
	for i := 0; c.Err() == nil; i++ {
		if !c.Decoding() && i == len(*nodes) {
			return
		}
		if c.Decoding() {
			if c.Peek() == 0 {
				return
			}
			*nodes = append(*nodes, node{tag: c.Peek()})
		}
		n := &(*nodes)[i]
		switch tag := n.tag; {
		case tag == TagInteger:
			Int(c, &n.i)
		case tag == TagCounter32 || tag == TagGauge32 || tag == TagTimeTicks || tag == TagCounter64:
			c.Uint(tag, &n.u)
		case tag == TagOID:
			c.OID(&n.oid, nil)
		case tag == TagNull:
			c.Null()
		case tag&0x20 != 0: // constructed
			seq := c.Begin(tag)
			walk(c, &n.kids)
			c.End(seq)
		default:
			c.Octets(tag, &n.s)
		}
	}
}

// FuzzBERReader feeds raw bytes to a decoding Codec, the reader under
// every SNMP message and RDS header: it may refuse them but never
// panic, and what it accepts re-encodes through the same visit into
// bytes that decode to the same values and re-encode to themselves.
func FuzzBERReader(f *testing.F) {
	var w Writer
	seq := w.BeginSeq(TagSequence)
	w.AppendInt(TagInteger, -129)
	w.AppendTLV(TagOctetString, []byte("public"))
	pdu := w.BeginSeq(0xA1)
	w.AppendOID(oid.OID{1, 3, 6, 1, 2, 1, 1, 3, 0})
	w.AppendNull()
	w.AppendUint(TagCounter64, 1<<63)
	w.AppendUint(TagTimeTicks, 12345)
	w.AppendTLV(TagIPAddress, []byte{10, 0, 0, 1})
	w.EndSeq(pdu)
	w.AppendTLV(0x82, nil) // a context tag, as RDS event records use
	w.EndSeq(seq)
	f.Add(w.Bytes())
	f.Add([]byte{0x30, 0x81, 0x03, 0x02, 0x01, 0x00})             // long form for a short length
	f.Add([]byte{0x02, 0x02, 0x00, 0x01})                         // non-minimal INTEGER
	f.Add([]byte{0x06, 0x03, 0x80, 0x80, 0x01})                   // non-minimal OID arc
	f.Add([]byte{0x04, 0x84, 0xFF, 0xFF, 0xFF, 0xFF})             // length past the input
	f.Add([]byte{0x06, 0x05, 0x90, 0x80, 0x80, 0x80, 0x50})       // first sub-identifier past 32 bits
	f.Add([]byte{0x30, 0x06, 0x30, 0x04, 0x30, 0x02, 0x05, 0x00}) // nested sequences

	f.Fuzz(func(t *testing.T, data []byte) {
		var got []node
		d := Decoder(data)
		if walk(&d, &got); d.Finish() != nil {
			return
		}
		e := Encoder(nil)
		walk(&e, &got)
		var again []node
		d = Decoder(e.Bytes())
		if walk(&d, &again); d.Finish() != nil {
			t.Fatalf("re-encoding %x of accepted %x does not decode: %v", e.Bytes(), data, d.Err())
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", again, got)
		}
		e2 := Encoder(nil)
		if walk(&e2, &again); !bytes.Equal(e2.Bytes(), e.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point: %x then %x", e.Bytes(), e2.Bytes())
		}
	})
}
