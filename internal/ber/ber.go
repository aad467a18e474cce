// Package ber implements the subset of the ASN.1 Basic Encoding Rules
// (ISO 8825) used by SNMPv1 messages and by RDS protocol headers.
//
// The paper's prototype "uses the asn.1 Basic Encoding Rules to encode
// rds message headers" and speaks SNMP to managed devices; both
// protocols in this repository share this codec so that byte counts
// measured by the experiment harness reflect real wire encodings.
//
// Supported universal types: INTEGER, OCTET STRING, NULL, OBJECT
// IDENTIFIER and SEQUENCE, plus the SNMP application tags (IpAddress,
// Counter32, Gauge32, TimeTicks, Opaque, Counter64) and
// context-specific constructed tags for PDUs. Definite length form
// only, as SNMP requires.
//
// Each wire structure states its fields once, as a visit over a Codec
// (codec.go) that either appends them through a Writer or decodes
// them, checking every tag it reads.
package ber

import (
	"errors"
	"fmt"

	"mbd/internal/oid"
)

// Class is the two-bit ASN.1 tag class.
type Class byte

// Tag classes.
const (
	ClassUniversal   Class = 0x00
	ClassApplication Class = 0x40
	ClassContext     Class = 0x80
	ClassPrivate     Class = 0xC0
)

// Constructed is the tag bit that marks a constructed element.
const Constructed byte = 0x20

// Universal tag numbers used by SNMP and RDS.
const (
	TagInteger     byte = 0x02
	TagOctetString byte = 0x04
	TagNull        byte = 0x05
	TagOID         byte = 0x06
	TagSequence    byte = 0x30 // constructed bit set
)

// SNMP application-class tags (RFC 1155).
const (
	TagIPAddress byte = 0x40
	TagCounter32 byte = 0x41
	TagGauge32   byte = 0x42
	TagTimeTicks byte = 0x43
	TagOpaque    byte = 0x44
	TagCounter64 byte = 0x46
)

// ErrTruncated is returned when a value's encoding claims more bytes
// than remain in the buffer.
var ErrTruncated = errors.New("ber: truncated encoding")

// Writer incrementally builds a BER encoding. The zero value is ready
// for use. All Append methods return the writer to allow chaining.
//
// Encoding is pure appending: no method allocates beyond growing the
// buffer, so a writer seeded with a reused buffer (NewWriter) encodes
// with zero steady-state allocations.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer that appends to dst, which may be nil.
// Callers reusing a buffer across encodes pass dst[:0]; Bytes returns
// the extended slice when encoding is done.
func NewWriter(dst []byte) Writer { return Writer{buf: dst} }

// Bytes returns the encoded bytes accumulated so far. The returned
// slice aliases the writer's internal buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// appendLength appends a definite-form length.
func (w *Writer) appendLength(n int) {
	switch {
	case n < 0x80:
		w.buf = append(w.buf, byte(n))
	case n <= 0xFF:
		w.buf = append(w.buf, 0x81, byte(n))
	case n <= 0xFFFF:
		w.buf = append(w.buf, 0x82, byte(n>>8), byte(n))
	case n <= 0xFFFFFF:
		w.buf = append(w.buf, 0x83, byte(n>>16), byte(n>>8), byte(n))
	default:
		w.buf = append(w.buf, 0x84, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	}
}

// AppendTLV appends a complete tag-length-value triple with the given
// raw tag byte and contents.
func (w *Writer) AppendTLV(tag byte, contents []byte) *Writer {
	w.buf = append(w.buf, tag)
	w.appendLength(len(contents))
	w.buf = append(w.buf, contents...)
	return w
}

// appendString appends a string-valued TLV without converting s.
func (w *Writer) appendString(tag byte, s string) {
	w.buf = append(w.buf, tag)
	w.appendLength(len(s))
	w.buf = append(w.buf, s...)
}

// AppendInt appends a two's-complement INTEGER with the given tag
// (TagInteger for universal integers; SNMP application tags reuse the
// integer content encoding).
func (w *Writer) AppendInt(tag byte, v int64) *Writer {
	w.buf = append(w.buf, tag)
	// Minimal two's-complement length.
	n := 1
	for x := v; x > 0x7F || x < -0x80; x >>= 8 {
		n++
	}
	w.appendLength(n)
	for i := n - 1; i >= 0; i-- {
		w.buf = append(w.buf, byte(v>>(uint(i)*8)))
	}
	return w
}

// AppendUint appends an unsigned integer (Counter32, Gauge32,
// TimeTicks, Counter64) using the given tag. Values with the high bit
// set get a leading zero octet, per BER.
func (w *Writer) AppendUint(tag byte, v uint64) *Writer {
	w.buf = append(w.buf, tag)
	n := 1
	for x := v; x > 0x7F; x >>= 8 {
		n++
	}
	w.appendLength(n)
	for i := n - 1; i >= 0; i-- {
		w.buf = append(w.buf, byte(v>>(uint(i)*8)))
	}
	return w
}

// AppendNull appends a NULL value.
func (w *Writer) AppendNull() *Writer {
	w.buf = append(w.buf, TagNull, 0x00)
	return w
}

// AppendOID appends an OBJECT IDENTIFIER. OIDs with fewer than two
// arcs are padded per convention (the empty OID encodes as 0.0).
// The contents are appended directly to the writer's buffer; no
// intermediate slice is allocated.
func (w *Writer) AppendOID(o oid.OID) *Writer {
	var first, second uint32
	rest := oid.OID(nil)
	switch {
	case len(o) >= 2:
		first, second, rest = o[0], o[1], o[2:]
	case len(o) == 1:
		first = o[0]
	}
	head := uint64(first)*40 + uint64(second)
	n := base128Len(head)
	for _, arc := range rest {
		n += base128Len(uint64(arc))
	}
	w.buf = append(w.buf, TagOID)
	w.appendLength(n)
	w.buf = appendBase128(w.buf, head)
	for _, arc := range rest {
		w.buf = appendBase128(w.buf, uint64(arc))
	}
	return w
}

// base128Len returns the number of octets base-128 encoding of v takes.
func base128Len(v uint64) int {
	n := 1
	for v > 0x7F {
		n++
		v >>= 7
	}
	return n
}

func appendBase128(dst []byte, v uint64) []byte {
	if v < 0x80 { // one octet, as most arcs take
		return append(dst, byte(v))
	}
	var tmp [10]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte(v&0x7F) | 0x80
		v >>= 7
	}
	tmp[len(tmp)-1] &^= 0x80
	return append(dst, tmp[i:]...)
}

// BeginSeq opens a constructed element with the given tag and returns a
// marker to pass to EndSeq. It reserves one length octet, which an
// element shorter than 128 bytes keeps, so only a longer one moves its
// contents when it ends.
func (w *Writer) BeginSeq(tag byte) int {
	w.buf = append(w.buf, tag, 0)
	return len(w.buf) - 1
}

// EndSeq closes a constructed element opened at marker, writing the
// definite-form length of everything appended since.
func (w *Writer) EndSeq(marker int) *Writer {
	n := len(w.buf) - marker - 1
	if n < 0x80 {
		w.buf[marker] = byte(n)
		return w
	}
	k := 1 // long-form length octets
	for x := n >> 8; x > 0; x >>= 8 {
		k++
	}
	w.buf = append(w.buf, make([]byte, k)...)
	copy(w.buf[marker+1+k:], w.buf[marker+1:len(w.buf)-k])
	w.buf[marker] = 0x80 | byte(k)
	for i := k; i > 0; i, n = i-1, n>>8 {
		w.buf[marker+i] = byte(n)
	}
	return w
}

// element parses the element at b[off:], returning its tag and the
// bounds of its contents, b[start:end].
func element(b []byte, off int) (tag byte, start, end int, err error) {
	if off+2 > len(b) {
		return 0, 0, 0, ErrTruncated
	}
	tag, n := b[off], int(b[off+1])
	off += 2
	if n >= 0x80 {
		k := n & 0x7F
		if k == 0 || k > 4 {
			return 0, 0, 0, fmt.Errorf("ber: unsupported length form 0x%02x", n)
		}
		if off+k > len(b) {
			return 0, 0, 0, ErrTruncated
		}
		n = 0
		for _, x := range b[off : off+k] {
			n = n<<8 | int(x)
		}
		off += k
	}
	if n > len(b)-off {
		return 0, 0, 0, ErrTruncated
	}
	return tag, off, off + n, nil
}

// intContents interprets an INTEGER's contents as a signed
// two's-complement integer.
func intContents(c []byte) (v int64, err error) {
	if len(c) == 0 || len(c) > 8 {
		return 0, fmt.Errorf("ber: integer of %d bytes", len(c))
	}
	v = int64(int8(c[0])) // sign-extend
	for _, b := range c[1:] {
		v = v<<8 | int64(b)
	}
	return v, nil
}

// uintContents interprets an element's contents as an unsigned integer
// (Counter/Gauge/TimeTicks).
func uintContents(c []byte) (v uint64, err error) {
	if len(c) == 0 || len(c) > 9 || (len(c) == 9 && c[0] != 0) {
		return 0, fmt.Errorf("ber: uint of %d bytes", len(c))
	}
	for _, b := range c {
		v = v<<8 | uint64(b)
	}
	return v, nil
}

func appendOIDContents(dst oid.OID, c []byte) (oid.OID, error) {
	if len(c) == 0 {
		return nil, errors.New("ber: empty OID")
	}
	var v uint64
	first := true
	for i, b := range c {
		if b < 0x80 && v == 0 && !first { // a one-octet arc, as most are
			dst = append(dst, uint32(b))
			continue
		}
		v = v<<7 | uint64(b&0x7F)
		if v > 1<<40 {
			return nil, errors.New("ber: OID arc overflow")
		}
		if b&0x80 != 0 {
			if i == len(c)-1 {
				return nil, errors.New("ber: OID ends mid-arc")
			}
			continue
		}
		if first {
			// The leading sub-identifier packs the first two arcs.
			switch {
			case v < 40:
				dst = append(dst, 0, uint32(v))
			case v < 80:
				dst = append(dst, 1, uint32(v-40))
			case v-80 <= 0xFFFFFFFF:
				dst = append(dst, 2, uint32(v-80))
			default:
				return nil, errors.New("ber: OID arc exceeds 32 bits")
			}
			first = false
		} else {
			if v > 0xFFFFFFFF {
				return nil, errors.New("ber: OID arc exceeds 32 bits")
			}
			dst = append(dst, uint32(v))
		}
		v = 0
	}
	return dst, nil
}
