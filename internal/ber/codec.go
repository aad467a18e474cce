package ber

import (
	"errors"
	"fmt"
	"iter"
	"slices"

	"mbd/internal/oid"
)

// Codec runs one wire structure's field list in either direction. A
// structure states its wire format once, as a method that visits its
// fields in order through a Codec: over an Encoder the visit appends
// each field, over a Decoder it reads each field back into the
// structure. The two directions cannot drift because they are the same
// code.
//
// Decoding checks the tag of every element it reads, copies what it
// keeps out of the input (no decoded field aliases it but Alias's), and
// refuses a constructed element with bytes left over. The first
// failure latches: every later call does nothing, so a visit checks Err
// only where a decoded value steers what it visits next. Visitors that
// derive a value for the wire write the structure back only when
// Decoding, so encoding never writes to what it encodes.
type Codec struct {
	w Writer
	// Decoding: the input, the next element's offset in it, and the end
	// of the open constructed element.
	in        []byte
	off, end  int
	dec       bool
	canonical bool
	err       error
}

// Encoder returns a codec that appends encodings to dst, which may be
// nil; Bytes returns the extended slice.
func Encoder(dst []byte) Codec { return Codec{w: NewWriter(dst)} }

// Decoder returns a codec that decodes b, which it does not copy. It
// reads any encoding BER allows for a value, as an SNMP peer may send.
func Decoder(b []byte) Codec { return Codec{in: b, end: len(b), dec: true} }

// CanonicalDecoder returns a decoder that accepts only the encoding an
// Encoder writes: it refuses a length, an integer or an OID arc in more
// octets than it needs and a boolean other than 0 or 1. A structure
// whose visit also refuses the choices it would not make then has one
// encoding, and what a decode accepts re-encodes to the bytes it read,
// as a digest over the encoding needs.
func CanonicalDecoder(b []byte) Codec {
	c := Decoder(b)
	c.canonical = true
	return c
}

// longer fails a canonical decode whose element just read, what, was
// not in its shortest form. Each caller tests canonical first, so a
// lenient decode pays one test; the failure stays out of line.
//
//go:noinline
func (c *Codec) longer(what string) {
	c.Fail(fmt.Errorf("ber: %s in more octets than it needs", what))
}

// Decoding reports whether c decodes.
func (c *Codec) Decoding() bool { return c.dec }

// Bytes returns the encoding appended so far.
func (c *Codec) Bytes() []byte { return c.w.Bytes() }

// Err returns the first failure, if any.
func (c *Codec) Err() error { return c.err }

// Fail latches err as c's failure unless one came first.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Finish returns c's failure, refusing input left after the decoded
// structure.
func (c *Codec) Finish() error {
	if c.dec && c.off < len(c.in) {
		c.Fail(errors.New("ber: trailing bytes after the encoding"))
	}
	return c.err
}

// Seq is a constructed element Begin opened; End closes it.
type Seq struct {
	at int // encoding: the Writer's marker; decoding: the enclosing element's end
}

// Begin opens a constructed element with the given tag.
func (c *Codec) Begin(tag byte) Seq {
	if !c.dec {
		return Seq{c.w.BeginSeq(tag)}
	}
	s := Seq{c.end}
	if start, end, ok := c.next(tag); ok {
		c.off, c.end = start, end
	}
	return s
}

// End closes s. Decoding, the element must have been read to its end.
func (c *Codec) End(s Seq) {
	if !c.dec {
		c.w.EndSeq(s.at)
		return
	}
	if c.off != c.end {
		c.Fail(errors.New("ber: bytes left in a constructed element"))
	}
	c.off, c.end = c.end, s.at
}

// Peek returns the tag of the open element's next element, or 0 when
// there is none; a visit decodes a CHOICE by it.
func (c *Codec) Peek() byte {
	if c.err != nil || c.off >= c.end {
		return 0
	}
	return c.in[c.off]
}

// Optional guards an element the encoding may leave out: encoding, it
// returns present; decoding, whether the open element's next element
// has the given tag.
func (c *Codec) Optional(tag byte, present bool) bool {
	if !c.dec {
		return present
	}
	return c.off < c.end && c.Peek() == tag
}

// List visits *s as a SEQUENCE OF under tag (TagSequence, or an
// implicit context tag), yielding each element's index in order.
// Encoding yields those *s holds; decoding appends a zero element to
// *s for each one the input holds, refusing more than max, and yields
// it for the loop body to decode into. A decoder reusing *s's
// storage passes it emptied; an unallocated *s gets room for the
// elements the list holds first.
func List[T any](c *Codec, tag byte, s *[]T, max int) iter.Seq[int] {
	return func(yield func(int) bool) {
		seq := c.Begin(tag)
		if c.dec && cap(*s) == 0 {
			*s = slices.Grow(*s, min(c.count(), maxPrealloc))
		}
		for i := 0; c.more(i, len(*s)); i++ {
			if c.dec {
				if i == max {
					c.err = fmt.Errorf("ber: list of more than %d elements", max)
					break
				}
				*s = append(*s, *new(T))
			}
			if !yield(i) {
				break
			}
		}
		c.End(seq)
	}
}

// maxPrealloc caps the elements a decoded list reserves room for before
// it reads any, so a long list of malformed elements claims little
// memory before its decode fails.
const maxPrealloc = 256

// more reports whether a list has an i-th element: encoding, whether
// i < n; decoding, whether the open element has input left.
func (c *Codec) more(i, n int) bool {
	if !c.dec {
		return i < n
	}
	return c.err == nil && c.off < c.end
}

// count returns the number of elements left in the open element.
func (c *Codec) count() int {
	n := 0
	for off := c.off; c.err == nil && off < c.end; n++ {
		if _, _, off, c.err = element(c.in[:c.end], off); c.err != nil {
			return 0
		}
	}
	return n
}

// read consumes the next element, which must carry tag, and returns its
// contents, aliasing the input.
func (c *Codec) read(tag byte) ([]byte, bool) {
	start, end, ok := c.next(tag)
	return c.in[start:end], ok
}

// next consumes the next element, which must carry tag, and returns the
// bounds of its contents. A short-form element takes the fast path.
func (c *Codec) next(tag byte) (start, end int, ok bool) {
	if off := c.off; c.err == nil && off+2 <= c.end && c.in[off] == tag && c.in[off+1] < 0x80 {
		if start, end = off+2, off+2+int(c.in[off+1]); end <= c.end {
			c.off = end
			return start, end, true
		}
	}
	if c.err != nil {
		return 0, 0, false
	}
	got, start, end, err := element(c.in[:c.end], c.off)
	if err == nil && got != tag {
		err = fmt.Errorf("ber: expected tag 0x%02x, got 0x%02x", tag, got)
	}
	if err != nil {
		c.err = err
		return 0, 0, false
	}
	// The long form, with a leading zero octet or a length that fits the short form.
	if c.canonical && start-c.off > 2 && (c.in[c.off+2] == 0 || end-start < 0x80) {
		c.longer("length")
	}
	c.off = end
	return start, end, c.err == nil
}

// Integer is the Go integer types Int and TaggedInt visit.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32
}

// Int visits a universal INTEGER. Decoding refuses a value *v's type
// cannot hold.
func Int[T Integer](c *Codec, v *T) { TaggedInt(c, TagInteger, v) }

// TaggedInt visits an INTEGER under tag, an implicit context tag where
// a structure's optional fields are told apart by their tags.
func TaggedInt[T Integer](c *Codec, tag byte, v *T) {
	if !c.dec {
		c.w.AppendInt(tag, int64(*v))
		return
	}
	b, ok := c.read(tag)
	if !ok {
		return
	}
	x, err := intContents(b)
	if err == nil && int64(T(x)) != x {
		err = fmt.Errorf("ber: integer %d out of range", x)
	}
	c.err = err
	*v = T(x)
	if c.canonical && len(b) > 1 && (b[0] == 0 && b[1] < 0x80 || b[0] == 0xFF && b[1] >= 0x80) {
		c.longer("integer")
	}
}

// Bool visits a boolean as the INTEGER 1 or 0; decoding reads any
// non-zero value as true, where a canonical decoder refuses it.
func (c *Codec) Bool(v *bool) {
	var x int64
	if *v {
		x = 1
	}
	Int(c, &x)
	if c.dec {
		if c.canonical && x != 0 && x != 1 {
			c.Fail(fmt.Errorf("ber: boolean %d", x))
		}
		*v = x != 0
	}
}

// Uint visits an unsigned integer under tag (Counter64, TimeTicks, ...).
func (c *Codec) Uint(tag byte, v *uint64) {
	if !c.dec {
		c.w.AppendUint(tag, *v)
		return
	}
	if b, ok := c.read(tag); ok {
		*v, c.err = uintContents(b)
		// A first octet past 0x7F reads as negative in two's complement,
		// which the encoder answers with a leading zero.
		if c.canonical && len(b) > 0 && (b[0] >= 0x80 || len(b) > 1 && b[0] == 0 && b[1] < 0x80) {
			c.longer("unsigned integer")
		}
	}
}

// Null visits a NULL.
func (c *Codec) Null() {
	if !c.dec {
		c.w.AppendNull()
		return
	}
	if b, ok := c.read(TagNull); ok && len(b) != 0 {
		c.err = fmt.Errorf("ber: NULL of %d bytes", len(b))
	}
}

// String visits a string under tag. Decoding keeps *s when it already
// holds the decoded bytes, so a decoder reusing a message copies an
// unchanged string once.
func (c *Codec) String(tag byte, s *string) {
	if !c.dec {
		c.w.appendString(tag, *s)
		return
	}
	if b, ok := c.read(tag); ok && string(b) != *s {
		*s = string(b)
	}
}

// Octets visits a byte string under tag; decoding leaves *b nil for an
// empty one.
func (c *Codec) Octets(tag byte, b *[]byte) {
	if !c.dec {
		c.w.AppendTLV(tag, *b)
		return
	}
	if v, ok := c.read(tag); ok {
		*b = nil
		if len(v) > 0 {
			*b = append([]byte(nil), v...)
		}
	}
}

// Alias visits a byte string under tag like Octets, except that
// decoding points *b into the input instead of copying it: for a
// visitor that builds its own value from the bytes at once. An empty
// string decodes as nil.
func (c *Codec) Alias(tag byte, b *[]byte) {
	if !c.dec {
		c.w.AppendTLV(tag, *b)
		return
	}
	if v, ok := c.read(tag); ok {
		*b = nil
		if len(v) > 0 {
			*b = v
		}
	}
}

// Fixed visits a byte string of exactly len(b) bytes under tag.
func (c *Codec) Fixed(tag byte, b []byte) {
	if !c.dec {
		c.w.AppendTLV(tag, b)
		return
	}
	v, ok := c.read(tag)
	if ok && len(v) != len(b) {
		c.err = fmt.Errorf("ber: string of %d bytes, want %d", len(v), len(b))
	}
	copy(b, v)
}

// OID visits an OBJECT IDENTIFIER. Decoding into a non-nil arena
// appends the arcs to *arena and points *o at them, so a decoder
// reusing one arena across messages decodes without allocating;
// otherwise *o gets storage of its own.
func (c *Codec) OID(o *oid.OID, arena *oid.OID) {
	if !c.dec {
		c.w.AppendOID(*o)
		return
	}
	v, ok := c.read(TagOID)
	if !ok {
		return
	}
	var base oid.OID
	if arena != nil {
		base = *arena
	}
	for i := 0; c.canonical && i < len(v); i++ { // an arc may not open with a zero septet
		if v[i] == 0x80 && (i == 0 || v[i-1] < 0x80) {
			c.longer("OID arc")
		}
	}
	ext, err := appendOIDContents(base, v)
	if c.Fail(err); c.err == nil {
		*o = ext[len(base):]
		if arena != nil {
			*arena = ext
		}
	}
}
