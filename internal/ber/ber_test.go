package ber

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mbd/internal/oid"
)

func TestIntRoundTrip(t *testing.T) {
	values := []int64{0, 1, -1, 127, 128, -128, -129, 255, 256, 1<<31 - 1, -(1 << 31), math.MaxInt64, math.MinInt64}
	for _, v := range values {
		var w Writer
		w.AppendInt(TagInteger, v)
		r := NewReader(w.Bytes())
		tag, got, err := r.ReadInt()
		if err != nil {
			t.Fatalf("ReadInt(%d): %v", v, err)
		}
		if tag != TagInteger || got != v {
			t.Errorf("round-trip %d: got %d tag 0x%02x", v, got, tag)
		}
		if !r.Empty() {
			t.Errorf("round-trip %d: trailing bytes", v)
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
			r := NewReader(w.Bytes())
			got, u, err := r.ReadUint()
			if err != nil {
				t.Fatalf("ReadUint(%d): %v", v, err)
			}
			if got != tag || u != v {
				t.Errorf("round-trip %d tag 0x%02x: got %d tag 0x%02x", v, tag, u, got)
			}
		}
	}
}

func TestStringAndNull(t *testing.T) {
	var w Writer
	w.AppendString(TagOctetString, []byte("public"))
	w.AppendNull()
	w.AppendString(TagOctetString, nil)
	r := NewReader(w.Bytes())
	tag, s, err := r.ReadString()
	if err != nil || tag != TagOctetString || string(s) != "public" {
		t.Fatalf("ReadString = %q tag 0x%02x err %v", s, tag, err)
	}
	if err := r.ReadNull(); err != nil {
		t.Fatalf("ReadNull: %v", err)
	}
	if _, s, err = r.ReadString(); err != nil || len(s) != 0 {
		t.Fatalf("empty string round-trip: %q, %v", s, err)
	}
	if !r.Empty() {
		t.Fatal("trailing bytes")
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
		r := NewReader(w.Bytes())
		got, err := r.ReadOID()
		if err != nil {
			t.Fatalf("ReadOID(%s): %v", s, err)
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
	var w Writer
	outer := w.BeginSeq(TagSequence)
	w.AppendInt(TagInteger, 7)
	inner := w.BeginSeq(TagSequence)
	w.AppendString(TagOctetString, []byte("x"))
	w.EndSeq(inner)
	w.EndSeq(outer)

	r, err := NewReader(w.Bytes()).EnterSeq(TagSequence)
	if err != nil {
		t.Fatal(err)
	}
	if _, v, err := r.ReadInt(); err != nil || v != 7 {
		t.Fatalf("inner int = %d, %v", v, err)
	}
	ir, err := r.EnterSeq(TagSequence)
	if err != nil {
		t.Fatal(err)
	}
	if _, s, err := ir.ReadString(); err != nil || string(s) != "x" {
		t.Fatalf("inner string = %q, %v", s, err)
	}
	if !ir.Empty() || !r.Empty() {
		t.Fatal("unconsumed input")
	}
}

func TestLongFormLengths(t *testing.T) {
	for _, n := range []int{127, 128, 255, 256, 65535, 65536, 1 << 20} {
		payload := bytes.Repeat([]byte{0xAB}, n)
		var w Writer
		w.AppendString(TagOctetString, payload)
		r := NewReader(w.Bytes())
		_, s, err := r.ReadString()
		if err != nil {
			t.Fatalf("len %d: %v", n, err)
		}
		if !bytes.Equal(s, payload) {
			t.Fatalf("len %d: payload mismatch", n)
		}
	}
}

func TestTruncatedInputs(t *testing.T) {
	var w Writer
	w.AppendString(TagOctetString, []byte("hello world"))
	full := w.Bytes()
	for i := 0; i < len(full); i++ {
		r := NewReader(full[:i])
		if _, _, err := r.ReadString(); err == nil {
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
		if _, err := NewReader(b).ReadOID(); err == nil {
			t.Errorf("malformed OID % x accepted", b)
		}
	}
}

func TestWrongTagErrors(t *testing.T) {
	var w Writer
	w.AppendInt(TagInteger, 5)
	if _, err := NewReader(w.Bytes()).ReadOID(); err == nil {
		t.Error("ReadOID accepted INTEGER")
	}
	if err := NewReader(w.Bytes()).ReadNull(); err == nil {
		t.Error("ReadNull accepted INTEGER")
	}
	if _, err := NewReader(w.Bytes()).EnterSeq(TagSequence); err == nil {
		t.Error("EnterSeq accepted INTEGER")
	}
}

func TestReaderPeekAndReset(t *testing.T) {
	var w Writer
	w.AppendInt(TagInteger, 1)
	r := NewReader(w.Bytes())
	tag, err := r.PeekTag()
	if err != nil || tag != TagInteger {
		t.Fatalf("PeekTag = 0x%02x, %v", tag, err)
	}
	if _, got, err := r.ReadInt(); err != nil || got != 1 || !r.Empty() {
		t.Fatalf("PeekTag consumed input: ReadInt = %d, %v", got, err)
	}
}

// Property: integers of any value round-trip.
func TestQuickIntRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		var w Writer
		w.AppendInt(TagInteger, v)
		_, got, err := NewReader(w.Bytes()).ReadInt()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: byte strings of any content round-trip.
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s []byte) bool {
		var w Writer
		w.AppendString(TagOctetString, s)
		_, got, err := NewReader(w.Bytes()).ReadString()
		return err == nil && bytes.Equal(got, s)
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
		got, err := NewReader(w.Bytes()).ReadOID()
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
				w.AppendString(TagOctetString, b)
				kinds[j] = 1
			default:
				w.AppendNull()
				kinds[j] = 2
			}
		}
		rd := NewReader(w.Bytes())
		for j, k := range kinds {
			switch k {
			case 0:
				_, v, err := rd.ReadInt()
				if err != nil || v != ints[j] {
					t.Fatalf("elem %d: int %d err %v", j, v, err)
				}
			case 1:
				_, s, err := rd.ReadString()
				if err != nil || !bytes.Equal(s, strs[j]) {
					t.Fatalf("elem %d: str err %v", j, err)
				}
			default:
				if err := rd.ReadNull(); err != nil {
					t.Fatalf("elem %d: null err %v", j, err)
				}
			}
		}
		if !rd.Empty() {
			t.Fatal("trailing bytes")
		}
	}
}

func TestLongFormSequences(t *testing.T) {
	// EndSeq must patch 2-, 3- and 4-byte length forms correctly.
	for _, n := range []int{100, 200, 70000, 1 << 17} {
		var w Writer
		m := w.BeginSeq(TagSequence)
		payload := bytes.Repeat([]byte{0x5A}, n)
		w.AppendString(TagOctetString, payload)
		w.EndSeq(m)
		r, err := NewReader(w.Bytes()).EnterSeq(TagSequence)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		_, s, err := r.ReadString()
		if err != nil || !bytes.Equal(s, payload) {
			t.Fatalf("n=%d: payload mismatch (%v)", n, err)
		}
		if !r.Empty() {
			t.Fatalf("n=%d: trailing bytes", n)
		}
	}
}

func TestReadUintRejectsOversized(t *testing.T) {
	// 9 bytes with a nonzero lead must be rejected (would overflow).
	bad := []byte{TagCounter64, 0x09, 0x01, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, _, err := NewReader(bad).ReadUint(); err == nil {
		t.Fatal("oversized uint accepted")
	}
	// But 9 bytes with a zero pad (BER positive-int form) is fine.
	ok := []byte{TagCounter64, 0x09, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	_, v, err := NewReader(ok).ReadUint()
	if err != nil || v != math.MaxUint64 {
		t.Fatalf("padded max uint = %d, %v", v, err)
	}
	// Empty contents rejected.
	if _, _, err := NewReader([]byte{TagCounter32, 0x00}).ReadUint(); err == nil {
		t.Fatal("empty uint accepted")
	}
}

func TestReadIntRejectsOversized(t *testing.T) {
	bad := []byte{TagInteger, 0x09, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if _, _, err := NewReader(bad).ReadInt(); err == nil {
		t.Fatal("9-byte int accepted")
	}
	if _, _, err := NewReader([]byte{TagInteger, 0x00}).ReadInt(); err == nil {
		t.Fatal("empty int accepted")
	}
}

func TestUnsupportedLengthForms(t *testing.T) {
	// Indefinite length (0x80) and 5-byte lengths are not SNMP-legal.
	for _, b := range [][]byte{
		{TagOctetString, 0x80, 0x00, 0x00},
		{TagOctetString, 0x85, 1, 2, 3, 4, 5},
	} {
		if _, _, err := NewReader(b).ReadTLV(); err == nil {
			t.Errorf("length form % x accepted", b[:2])
		}
	}
}

func TestOIDSingleArcAndEmpty(t *testing.T) {
	// Single-arc and empty OIDs use the padding convention.
	for _, o := range []oid.OID{nil, {1}} {
		var w Writer
		w.AppendOID(o)
		got, err := NewReader(w.Bytes()).ReadOID()
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		if len(got) != 2 {
			t.Fatalf("%v decoded to %v", o, got)
		}
	}
}
