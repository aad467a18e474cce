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

// AppendString appends an OCTET STRING (or any string-like tag).
func (w *Writer) AppendString(tag byte, s []byte) *Writer {
	return w.AppendTLV(tag, s)
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
	if v == 0 {
		return append(dst, 0)
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
// marker to pass to EndSeq. Lengths are patched when the sequence ends.
func (w *Writer) BeginSeq(tag byte) int {
	w.buf = append(w.buf, tag)
	return len(w.buf)
}

// EndSeq closes a constructed element opened at marker, inserting the
// definite-form length of everything appended in between.
func (w *Writer) EndSeq(marker int) *Writer {
	contents := w.buf[marker:]
	n := len(contents)
	var lenBytes int
	switch {
	case n < 0x80:
		lenBytes = 1
	case n <= 0xFF:
		lenBytes = 2
	case n <= 0xFFFF:
		lenBytes = 3
	case n <= 0xFFFFFF:
		lenBytes = 4
	default:
		lenBytes = 5
	}
	w.buf = append(w.buf, make([]byte, lenBytes)...)
	copy(w.buf[marker+lenBytes:], w.buf[marker:len(w.buf)-lenBytes])
	// Re-encode the length in place.
	switch lenBytes {
	case 1:
		w.buf[marker] = byte(n)
	case 2:
		w.buf[marker] = 0x81
		w.buf[marker+1] = byte(n)
	case 3:
		w.buf[marker] = 0x82
		w.buf[marker+1] = byte(n >> 8)
		w.buf[marker+2] = byte(n)
	case 4:
		w.buf[marker] = 0x83
		w.buf[marker+1] = byte(n >> 16)
		w.buf[marker+2] = byte(n >> 8)
		w.buf[marker+3] = byte(n)
	default:
		w.buf[marker] = 0x84
		w.buf[marker+1] = byte(n >> 24)
		w.buf[marker+2] = byte(n >> 16)
		w.buf[marker+3] = byte(n >> 8)
		w.buf[marker+4] = byte(n)
	}
	return w
}

// Reader decodes a BER byte stream sequentially.
type Reader struct {
	buf []byte
	off int
}

// NewReader returns a Reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Empty reports whether all input has been consumed.
func (r *Reader) Empty() bool { return r.off >= len(r.buf) }

// PeekTag returns the tag byte of the next element without consuming it.
func (r *Reader) PeekTag() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, ErrTruncated
	}
	return r.buf[r.off], nil
}

// header consumes tag and length, returning the tag and content length.
func (r *Reader) header() (tag byte, n int, err error) {
	if r.off >= len(r.buf) {
		return 0, 0, ErrTruncated
	}
	tag = r.buf[r.off]
	r.off++
	if r.off >= len(r.buf) {
		return 0, 0, ErrTruncated
	}
	b := r.buf[r.off]
	r.off++
	if b < 0x80 {
		return tag, int(b), nil
	}
	k := int(b & 0x7F)
	if k == 0 || k > 4 {
		return 0, 0, fmt.Errorf("ber: unsupported length form 0x%02x", b)
	}
	if r.off+k > len(r.buf) {
		return 0, 0, ErrTruncated
	}
	for i := 0; i < k; i++ {
		n = n<<8 | int(r.buf[r.off])
		r.off++
	}
	if n < 0 {
		return 0, 0, fmt.Errorf("ber: negative length")
	}
	return tag, n, nil
}

// ReadTLV consumes the next element and returns its tag and contents.
// The contents alias the reader's buffer.
func (r *Reader) ReadTLV() (tag byte, contents []byte, err error) {
	tag, n, err := r.header()
	if err != nil {
		return 0, nil, err
	}
	if r.off+n > len(r.buf) {
		return 0, nil, ErrTruncated
	}
	contents = r.buf[r.off : r.off+n]
	r.off += n
	return tag, contents, nil
}

// ReadInt consumes an element and interprets its contents as a signed
// two's-complement integer, returning the actual tag found.
func (r *Reader) ReadInt() (tag byte, v int64, err error) {
	tag, c, err := r.ReadTLV()
	if err != nil {
		return 0, 0, err
	}
	if len(c) == 0 || len(c) > 8 {
		return 0, 0, fmt.Errorf("ber: integer of %d bytes", len(c))
	}
	v = int64(int8(c[0])) // sign-extend
	for _, b := range c[1:] {
		v = v<<8 | int64(b)
	}
	return tag, v, nil
}

// ReadUint consumes an element and interprets its contents as an
// unsigned integer (Counter/Gauge/TimeTicks).
func (r *Reader) ReadUint() (tag byte, v uint64, err error) {
	tag, c, err := r.ReadTLV()
	if err != nil {
		return 0, 0, err
	}
	if len(c) == 0 || len(c) > 9 || (len(c) == 9 && c[0] != 0) {
		return 0, 0, fmt.Errorf("ber: uint of %d bytes", len(c))
	}
	for _, b := range c {
		v = v<<8 | uint64(b)
	}
	return tag, v, nil
}

// ReadString consumes an element and returns its contents as a copied
// byte slice along with the tag.
func (r *Reader) ReadString() (tag byte, s []byte, err error) {
	tag, c, err := r.ReadTLV()
	if err != nil {
		return 0, nil, err
	}
	out := make([]byte, len(c))
	copy(out, c)
	return tag, out, nil
}

// ReadOID consumes an OBJECT IDENTIFIER element.
func (r *Reader) ReadOID() (oid.OID, error) {
	return r.AppendOID(nil)
}

// AppendOID consumes an OBJECT IDENTIFIER element and appends its arcs
// to dst, returning the extended slice (append semantics: the decoded
// OID is ext[len(dst):]). Decoders that reuse an arc arena across
// messages pass the arena to decode without allocating; dst may be nil,
// in which case the result is just the decoded OID.
func (r *Reader) AppendOID(dst oid.OID) (oid.OID, error) {
	tag, c, err := r.ReadTLV()
	if err != nil {
		return nil, err
	}
	if tag != TagOID {
		return nil, fmt.Errorf("ber: expected OID tag, got 0x%02x", tag)
	}
	return appendOIDContents(dst, c)
}

func appendOIDContents(dst oid.OID, c []byte) (oid.OID, error) {
	if len(c) == 0 {
		return nil, errors.New("ber: empty OID")
	}
	var v uint64
	first := true
	for i, b := range c {
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

// ReadNull consumes a NULL element.
func (r *Reader) ReadNull() error {
	tag, c, err := r.ReadTLV()
	if err != nil {
		return err
	}
	if tag != TagNull || len(c) != 0 {
		return fmt.Errorf("ber: expected NULL, got tag 0x%02x len %d", tag, len(c))
	}
	return nil
}

// EnterSeq consumes the header of a constructed element with the given
// tag and returns a sub-reader confined to its contents.
func (r *Reader) EnterSeq(tag byte) (*Reader, error) {
	sub, err := r.Seq(tag)
	if err != nil {
		return nil, err
	}
	return &sub, nil
}

// Seq is EnterSeq returning the sub-reader by value: decoders nesting
// several sequences per message use it to stay allocation-free.
func (r *Reader) Seq(tag byte) (Reader, error) {
	got, c, err := r.ReadTLV()
	if err != nil {
		return Reader{}, err
	}
	if got != tag {
		return Reader{}, fmt.Errorf("ber: expected constructed tag 0x%02x, got 0x%02x", tag, got)
	}
	return Reader{buf: c}, nil
}
