package ber

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mbd/internal/oid"
)

// decodeOID decodes b, one OBJECT IDENTIFIER, into storage of its own.
func decodeOID(b []byte) (oid.OID, error) {
	var o oid.OID
	d := Decoder(b)
	d.OID(&o, nil)
	return o, d.Finish()
}

func TestIntRoundTrip(t *testing.T) {
	values := []int64{0, 1, -1, 127, 128, -128, -129, 255, 256, 1<<31 - 1, -(1 << 31), math.MaxInt64, math.MinInt64}
	for _, v := range values {
		e := Encoder(nil)
		Int(&e, &v)
		d := Decoder(e.Bytes())
		var got int64
		Int(&d, &got)
		if err := d.Finish(); err != nil {
			t.Fatalf("Int(%d): %v", v, err)
		}
		if got != v {
			t.Errorf("round-trip %d: got %d", v, got)
		}
	}
}

func TestIntMinimalEncoding(t *testing.T) {
	tests := []struct {
		v    int64
		want []byte
	}{
		{0, []byte{0x02, 0x01, 0x00}},
		{127, []byte{0x02, 0x01, 0x7F}},
		{128, []byte{0x02, 0x02, 0x00, 0x80}},
		{-128, []byte{0x02, 0x01, 0x80}},
		{256, []byte{0x02, 0x02, 0x01, 0x00}},
	}
	for _, tt := range tests {
		var w Writer
		w.AppendInt(TagInteger, tt.v)
		if !bytes.Equal(w.Bytes(), tt.want) {
			t.Errorf("encode %d = % x, want % x", tt.v, w.Bytes(), tt.want)
		}
	}
}

func TestUintRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 127, 128, 255, 1 << 31, math.MaxUint32, math.MaxUint64}
	tags := []byte{TagCounter32, TagGauge32, TagTimeTicks, TagCounter64}
	for _, v := range values {
		for _, tag := range tags {
			var w Writer
			w.AppendUint(tag, v)
			d := Decoder(w.Bytes())
			var u uint64
			d.Uint(tag, &u)
			if err := d.Finish(); err != nil {
				t.Fatalf("Uint(%d): %v", v, err)
			}
			if u != v {
				t.Errorf("round-trip %d tag 0x%02x: got %d", v, tag, u)
			}
		}
	}
}

func TestStringAndNull(t *testing.T) {
	var w Writer
	w.AppendTLV(TagOctetString, []byte("public"))
	w.AppendNull()
	w.AppendTLV(TagOctetString, nil)
	d := Decoder(w.Bytes())
	var s string
	d.String(TagOctetString, &s)
	if err := d.Err(); err != nil || s != "public" {
		t.Fatalf("String = %q err %v", s, err)
	}
	d.Null()
	if err := d.Err(); err != nil {
		t.Fatalf("Null: %v", err)
	}
	b := []byte("stale")
	if d.Octets(TagOctetString, &b); d.Err() != nil || b != nil {
		t.Fatalf("empty string round-trip: %q, %v", b, d.Err())
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	// A NULL carries no contents.
	d = Decoder([]byte{TagNull, 0x01, 0x00})
	if d.Null(); d.Err() == nil {
		t.Fatal("NULL with contents accepted")
	}
}

func TestOIDRoundTrip(t *testing.T) {
	cases := []string{
		"1.3.6.1.2.1.1.1.0",
		"0.0",
		"1.3",
		"2.999.3",                // first arc 2 with large second
		"1.3.6.1.4.1.45.1.3.2.1", // synoptics-like
		"1.3.6.1.2.1.2.2.1.10.4294967295",
	}
	for _, s := range cases {
		o := oid.MustParse(s)
		var w Writer
		w.AppendOID(o)
		got, err := decodeOID(w.Bytes())
		if err != nil {
			t.Fatalf("OID(%s): %v", s, err)
		}
		if !got.Equal(o) {
			t.Errorf("round-trip %s = %s", s, got)
		}
	}
}

func TestOIDKnownEncoding(t *testing.T) {
	// 1.3.6.1 encodes as 2B 06 01 (first two arcs merge to 43 = 0x2B).
	var w Writer
	w.AppendOID(oid.MustParse("1.3.6.1"))
	want := []byte{0x06, 0x03, 0x2B, 0x06, 0x01}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("encode 1.3.6.1 = % x, want % x", w.Bytes(), want)
	}
}

func TestSequenceNesting(t *testing.T) {
	// visit is one field list for both directions.
	visit := func(c *Codec, v *int64, s *string) {
		outer := c.Begin(TagSequence)
		Int(c, v)
		inner := c.Begin(TagSequence)
		c.String(TagOctetString, s)
		c.End(inner)
		c.End(outer)
	}
	v, s := int64(7), "x"
	e := Encoder(nil)
	visit(&e, &v, &s)
	want := []byte{0x30, 0x08, 0x02, 0x01, 0x07, 0x30, 0x03, 0x04, 0x01, 'x'}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("encoding = % x, want % x", e.Bytes(), want)
	}
	var gv int64
	var gs string
	d := Decoder(e.Bytes())
	visit(&d, &gv, &gs)
	if err := d.Finish(); err != nil || gv != 7 || gs != "x" {
		t.Fatalf("decoded %d %q, %v", gv, gs, err)
	}
	// An inner element with bytes left over, or bytes after the outer
	// one, is refused.
	for _, bad := range [][]byte{
		{0x30, 0x0a, 0x02, 0x01, 0x07, 0x30, 0x05, 0x04, 0x01, 'x', 0x05, 0x00},
		append(append([]byte{}, want...), 0x05, 0x00),
	} {
		d := Decoder(bad)
		visit(&d, &gv, &gs)
		if d.Finish() == nil {
			t.Errorf("% x accepted", bad)
		}
	}
}

func TestLongFormLengths(t *testing.T) {
	for _, n := range []int{127, 128, 255, 256, 65535, 65536, 1 << 20} {
		payload := bytes.Repeat([]byte{0xAB}, n)
		var w Writer
		w.AppendTLV(TagOctetString, payload)
		d := Decoder(w.Bytes())
		var s []byte
		d.Octets(TagOctetString, &s)
		if err := d.Finish(); err != nil {
			t.Fatalf("len %d: %v", n, err)
		}
		if !bytes.Equal(s, payload) {
			t.Fatalf("len %d: payload mismatch", n)
		}
	}
}

func TestTruncatedInputs(t *testing.T) {
	var w Writer
	w.AppendTLV(TagOctetString, []byte("hello world"))
	full := w.Bytes()
	for i := 0; i < len(full); i++ {
		d := Decoder(full[:i])
		var s string
		if d.String(TagOctetString, &s); d.Err() == nil {
			t.Fatalf("truncation at %d not detected", i)
		}
	}
}

func TestMalformedOIDs(t *testing.T) {
	bad := [][]byte{
		{0x06, 0x00},                               // empty contents
		{0x06, 0x01, 0x80},                         // ends mid-arc
		{0x06, 0x02, 0x2B, 0x80},                   // ends mid-arc after valid arc
		{0x06, 0x05, 0x90, 0x80, 0x80, 0x80, 0x50}, // first sub-identifier packs 2.(2^32)
	}
	for _, b := range bad {
		if _, err := decodeOID(b); err == nil {
			t.Errorf("malformed OID % x accepted", b)
		}
	}
}

func TestWrongTagErrors(t *testing.T) {
	var w Writer
	w.AppendInt(TagInteger, 5)
	for name, visit := range map[string]func(*Codec){
		"OID":    func(c *Codec) { c.OID(new(oid.OID), nil) },
		"Null":   func(c *Codec) { c.Null() },
		"Begin":  func(c *Codec) { c.End(c.Begin(TagSequence)) },
		"String": func(c *Codec) { c.String(TagOctetString, new(string)) },
		"Octets": func(c *Codec) { c.Octets(TagOctetString, new([]byte)) },
		"Uint":   func(c *Codec) { c.Uint(TagCounter64, new(uint64)) },
		"Fixed":  func(c *Codec) { c.Fixed(TagOctetString, make([]byte, 1)) },
		"Int":    func(c *Codec) { Int(c, new(int64)) }, // reads the tag it was given
		"List": func(c *Codec) {
			for range List(c, TagSequence, new([]int), 1) {
			}
		},
	} {
		d := Decoder(w.Bytes())
		if visit(&d); (d.Finish() == nil) != (name == "Int") {
			t.Errorf("%s on an INTEGER: err = %v", name, d.Err())
		}
	}
	// Int refuses a value its type cannot hold.
	var small int8
	d := Decoder([]byte{TagInteger, 0x02, 0x01, 0x00})
	if Int(&d, &small); d.Err() == nil {
		t.Errorf("int8 decoded 256 as %d", small)
	}
}

// TestReaderPeekAndReset: Peek and Optional look at the next element
// without consuming it.
func TestReaderPeekAndReset(t *testing.T) {
	var w Writer
	w.AppendInt(TagInteger, 1)
	d := Decoder(w.Bytes())
	if tag := d.Peek(); tag != TagInteger || !d.Optional(TagInteger, false) || d.Optional(TagNull, true) {
		t.Fatalf("Peek = 0x%02x", tag)
	}
	var got int
	if Int(&d, &got); d.Finish() != nil || got != 1 {
		t.Fatalf("Peek consumed input: Int = %d, %v", got, d.Err())
	}
	if d.Peek() != 0 || d.Optional(TagInteger, true) {
		t.Fatal("Peek past the end found an element")
	}
}

// Property: integers of any value round-trip.
func TestQuickIntRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		var w Writer
		w.AppendInt(TagInteger, v)
		d := Decoder(w.Bytes())
		var got int64
		Int(&d, &got)
		return d.Finish() == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: byte strings of any content round-trip.
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s []byte) bool {
		e := Encoder(nil)
		e.Octets(TagOctetString, &s)
		d := Decoder(e.Bytes())
		var got []byte
		d.Octets(TagOctetString, &got)
		return d.Finish() == nil && bytes.Equal(got, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: random OIDs (with valid first-two-arc constraints) round-trip.
func TestQuickOIDRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		n := 2 + r.Intn(12)
		o := make(oid.OID, n)
		o[0] = uint32(r.Intn(3))
		if o[0] < 2 {
			o[1] = uint32(r.Intn(40))
		} else {
			o[1] = uint32(r.Intn(100000))
		}
		for j := 2; j < n; j++ {
			o[j] = uint32(r.Int63n(1 << 32))
		}
		var w Writer
		w.AppendOID(o)
		got, err := decodeOID(w.Bytes())
		if err != nil {
			t.Fatalf("decode %v: %v", o, err)
		}
		if !got.Equal(o) {
			t.Fatalf("round-trip %v = %v", o, got)
		}
	}
}

// Property: a random concatenation of supported values decodes in order.
func TestQuickHeterogeneousStream(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		var w Writer
		kinds := make([]int, 1+r.Intn(20))
		ints := map[int]int64{}
		strs := map[int][]byte{}
		for j := range kinds {
			switch k := r.Intn(3); k {
			case 0:
				v := r.Int63() - r.Int63()
				ints[j] = v
				w.AppendInt(TagInteger, v)
				kinds[j] = 0
			case 1:
				b := make([]byte, r.Intn(32))
				r.Read(b)
				strs[j] = b
				w.AppendTLV(TagOctetString, b)
				kinds[j] = 1
			default:
				w.AppendNull()
				kinds[j] = 2
			}
		}
		d := Decoder(w.Bytes())
		for j, k := range kinds {
			switch k {
			case 0:
				var v int64
				if Int(&d, &v); d.Err() != nil || v != ints[j] {
					t.Fatalf("elem %d: int %d err %v", j, v, d.Err())
				}
			case 1:
				var s []byte
				if d.Octets(TagOctetString, &s); d.Err() != nil || !bytes.Equal(s, strs[j]) {
					t.Fatalf("elem %d: str err %v", j, d.Err())
				}
			default:
				if d.Null(); d.Err() != nil {
					t.Fatalf("elem %d: null err %v", j, d.Err())
				}
			}
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLongFormSequences(t *testing.T) {
	// EndSeq must patch 2-, 3- and 4-byte length forms correctly.
	for _, n := range []int{100, 200, 70000, 1 << 17} {
		var w Writer
		m := w.BeginSeq(TagSequence)
		payload := bytes.Repeat([]byte{0x5A}, n)
		w.AppendTLV(TagOctetString, payload)
		w.EndSeq(m)
		d := Decoder(w.Bytes())
		seq := d.Begin(TagSequence)
		var s []byte
		d.Octets(TagOctetString, &s)
		d.End(seq)
		if err := d.Finish(); err != nil || !bytes.Equal(s, payload) {
			t.Fatalf("n=%d: payload mismatch (%v)", n, err)
		}
	}
}

func TestReadUintRejectsOversized(t *testing.T) {
	// 9 bytes with a nonzero lead must be rejected (would overflow).
	uint := func(b []byte) (uint64, error) {
		d := Decoder(b)
		var v uint64
		d.Uint(b[0], &v)
		return v, d.Finish()
	}
	if _, err := uint([]byte{TagCounter64, 0x09, 0x01, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("oversized uint accepted")
	}
	// But 9 bytes with a zero pad (BER positive-int form) is fine.
	v, err := uint([]byte{TagCounter64, 0x09, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	if err != nil || v != math.MaxUint64 {
		t.Fatalf("padded max uint = %d, %v", v, err)
	}
	// Empty contents rejected.
	if _, err := uint([]byte{TagCounter32, 0x00}); err == nil {
		t.Fatal("empty uint accepted")
	}
}

func TestReadIntRejectsOversized(t *testing.T) {
	for _, b := range [][]byte{
		{TagInteger, 0x09, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{TagInteger, 0x00},
	} {
		d := Decoder(b)
		var v int64
		if Int(&d, &v); d.Err() == nil {
			t.Fatalf("% x accepted as %d", b, v)
		}
	}
}

func TestUnsupportedLengthForms(t *testing.T) {
	// Indefinite length (0x80) and 5-byte lengths are not SNMP-legal.
	for _, b := range [][]byte{
		{TagOctetString, 0x80, 0x00, 0x00},
		{TagOctetString, 0x85, 1, 2, 3, 4, 5},
	} {
		d := Decoder(b)
		if d.Octets(TagOctetString, new([]byte)); d.Err() == nil {
			t.Errorf("length form % x accepted", b[:2])
		}
	}
}

func TestOIDSingleArcAndEmpty(t *testing.T) {
	// Single-arc and empty OIDs use the padding convention.
	for _, o := range []oid.OID{nil, {1}} {
		var w Writer
		w.AppendOID(o)
		got, err := decodeOID(w.Bytes())
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		if len(got) != 2 {
			t.Fatalf("%v decoded to %v", o, got)
		}
	}
}

// TestCanonicalDecoderRefusesLongerForms: BER lets a length, an
// integer or an OID arc take more octets than it needs, and Decoder
// reads them, as an SNMP peer may send them; CanonicalDecoder refuses
// each, and a boolean other than 0 or 1.
func TestCanonicalDecoderRefusesLongerForms(t *testing.T) {
	long := append([]byte{TagOctetString, 0x82, 0x00, 0x81}, make([]byte, 0x81)...)
	for name, c := range map[string]struct {
		b     []byte
		visit func(*Codec)
	}{
		"long form, short length":   {[]byte{TagOctetString, 0x81, 0x01, 'x'}, func(c *Codec) { c.Octets(TagOctetString, new([]byte)) }},
		"long form, leading zero":   {long, func(c *Codec) { c.Octets(TagOctetString, new([]byte)) }},
		"sequence length":           {[]byte{TagSequence, 0x81, 0x00}, func(c *Codec) { c.End(c.Begin(TagSequence)) }},
		"integer, leading 0x00":     {[]byte{TagInteger, 0x02, 0x00, 0x01}, func(c *Codec) { Int(c, new(int64)) }},
		"integer, leading 0xFF":     {[]byte{TagInteger, 0x02, 0xFF, 0xFF}, func(c *Codec) { Int(c, new(int64)) }},
		"tagged integer":            {[]byte{0x80, 0x02, 0x00, 0x7F}, func(c *Codec) { TaggedInt(c, 0x80, new(int32)) }},
		"unsigned, leading 0x00":    {[]byte{TagCounter32, 0x02, 0x00, 0x01}, func(c *Codec) { c.Uint(TagCounter32, new(uint64)) }},
		"unsigned, high bit set":    {[]byte{TagCounter32, 0x01, 0x80}, func(c *Codec) { c.Uint(TagCounter32, new(uint64)) }},
		"OID arc opening with 0x80": {[]byte{TagOID, 0x03, 0x2B, 0x80, 0x01}, func(c *Codec) { c.OID(new(oid.OID), nil) }},
		"boolean 2":                 {[]byte{TagInteger, 0x01, 0x02}, func(c *Codec) { c.Bool(new(bool)) }},
	} {
		lax := Decoder(c.b)
		if c.visit(&lax); lax.Finish() != nil {
			t.Errorf("%s: Decoder refused % x: %v", name, c.b, lax.Err())
		}
		strict := CanonicalDecoder(c.b)
		if c.visit(&strict); strict.Finish() == nil {
			t.Errorf("%s: CanonicalDecoder accepted % x", name, c.b)
		}
	}
	// The shortest forms pass: a 0x80 that continues an arc, a 0x00
	// that keeps a value positive, a long form a length needs.
	for _, b := range [][]byte{
		{TagOID, 0x04, 0x2B, 0x81, 0x80, 0x00},
		{TagInteger, 0x02, 0x00, 0x80},
		{TagInteger, 0x02, 0xFF, 0x7F},
		append([]byte{TagOctetString, 0x81, 0x80}, make([]byte, 0x80)...),
	} {
		d := CanonicalDecoder(b)
		var n []node
		if walk(&d, &n); d.Finish() != nil {
			t.Errorf("% x refused: %v", b[:min(len(b), 4)], d.Err())
		}
	}
}
