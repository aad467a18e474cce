// Package rds implements the Remote Delegation Service: the protocol a
// delegator (manager) uses to transfer delegated programs to an elastic
// process, instantiate and control them, exchange messages with running
// instances, and receive their events.
//
// As in the paper's prototype, message headers are encoded with ASN.1
// BER and the service runs over stream transports (TCP here; the
// original also spoke UDP). Optional MD5 digest authentication of
// principals follows the SOS enhancement the dissertation describes
// ([Dupuy 1995], RFC 1321-era message digests).
package rds

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"mbd/internal/ber"
)

// DiagRec is one static-analysis diagnostic in a rejection reply: the
// structured reason a delegation or evaluation was refused. Code is a
// stable machine-readable identifier (DPL001…), Severity is "error" or
// "warning".
type DiagRec struct {
	Code     string
	Severity string
	Msg      string
	Line     int64
	Col      int64
}

// String renders the record like a compiler diagnostic.
func (d DiagRec) String() string {
	return fmt.Sprintf("%d:%d: %s[%s]: %s", d.Line, d.Col, d.Severity, d.Code, d.Msg)
}

// InfoRec is one instance-status record in a query reply.
type InfoRec struct {
	ID     string
	DP     string
	Entry  string
	State  string
	Steps  uint64
	Result string
	Err    string
}

// LangCompiled marks a delegation whose Payload is an encoded
// dpl.CompiledProgram (verified bytecode) rather than source text. It
// mirrors elastic.LangCompiled without importing the package into
// every client.
const LangCompiled = "dplc"

// Message is one RDS protocol message. Field use depends on Op (see the
// Op constants). Digest carries the MD5 authenticator and is excluded
// from its own computation.
type Message struct {
	Op        Op
	Seq       uint32
	Principal string
	Digest    []byte
	Name      string
	Entry     string
	Lang      string
	Payload   []byte
	Args      []string
	OK        bool
	Error     string
	TimeMS    int64
	Infos     []InfoRec
	Diags     []DiagRec
	// Records carries the later events of a batched OpEvent frame, in
	// order after the envelope's own event (Name, Entry, Payload,
	// TimeMS, Principal). On the wire each record holds only what
	// differs from the event before (visitRecord): the length of the
	// payload prefix the two share and the rest of its payload, its time
	// as a delta, and its DPI, kind and principal. A decoded record's
	// payload may share the envelope's Payload bytes, which are then
	// read-only.
	Records []Event
}

// maxArgs bounds decoded argument lists defensively.
const maxArgs = 1024

// maxDiags bounds decoded diagnostic lists defensively.
const maxDiags = 4096

// maxRecords bounds decoded event-record lists defensively: a frame
// never carries more than one drained subscriber queue.
const maxRecords = subscriberQueueDepth

// Envelope field tags: after Op, which leads every message, each field
// travels under its own context tag, in this order, and only when it
// holds a non-zero value. An absent field is a zero field, and a
// present one never holds zero, so a message has one encoding.
const (
	tagSeq = byte(ber.ClassContext) | iota
	tagPrincipal
	tagDigest
	tagName
	tagEntry
	tagLang
	tagPayload
	tagOK
	tagError
	tagTimeMS
	tagArgs  = byte(ber.ClassContext) | ber.Constructed | 10
	tagInfos = byte(ber.ClassContext) | ber.Constructed | 11
	tagDiags = byte(ber.ClassContext) | ber.Constructed | 12
)

// Record field tags: a record's DPI, kind and principal travel as
// context-specific [0], [1], [2] and only when they differ from the
// event before; [3] counts the leading payload bytes it shares with the
// event before, when there are any.
const (
	tagRecDPI       = byte(ber.ClassContext) | 0
	tagRecKind      = byte(ber.ClassContext) | 1
	tagRecPrincipal = byte(ber.ClassContext) | 2
	tagRecShared    = byte(ber.ClassContext) | 3
)

// Encode serializes m with BER.
func (m *Message) Encode() []byte {
	return m.AppendEncode(nil)
}

// AppendEncode serializes m with BER appended to dst, returning the
// extended slice. dst may be nil; the server's per-connection writers
// pass a reused buffer so steady-state encoding does not allocate. The
// result aliases dst's storage when capacity suffices and is owned by
// the caller.
func (m *Message) AppendEncode(dst []byte) []byte { return encode(dst, m, (*Message).visit) }

// Decode parses a BER-encoded message, refusing any encoding but the
// one Encode writes. Every frame takes this path, so it runs visit
// directly rather than through decode, keeping the codec off the heap.
func Decode(b []byte) (*Message, error) {
	m := &Message{}
	c := ber.CanonicalDecoder(b)
	m.visit(&c)
	if err := c.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// encode appends v's encoding to dst: visit is v's field list.
func encode[T any](dst []byte, v *T, visit func(*T, *ber.Codec)) []byte {
	c := ber.Encoder(dst)
	visit(v, &c)
	return c.Bytes()
}

// decode fills v from b with visit, v's field list, returning v, or
// nil when b is not the encoding encode writes for it.
func decode[T any](b []byte, v *T, visit func(*T, *ber.Codec)) (*T, error) {
	c := ber.CanonicalDecoder(b)
	visit(v, &c)
	if err := c.Finish(); err != nil {
		return nil, err
	}
	return v, nil
}

// visit runs m's wire format through c: the envelope's fields, then
// its event records, which only an OpEvent batch carries and never
// empty. The payloads the records rebuild total at most MaxFrame, so
// decoding a frame builds no more than a frame's worth of payload per
// frame byte read.
func (m *Message) visit(c *ber.Codec) {
	root := m.visitHead(c)
	if c.Optional(ber.TagSequence, len(m.Records) > 0) {
		if m.Op != OpEvent {
			c.Fail(errors.New("rds: event records on a non-event message"))
		}
		prev, budget := m.head(), MaxFrame
		for i := range ber.List(c, ber.TagSequence, &m.Records, maxRecords) {
			if c.Decoding() {
				m.Records[i] = prev
			}
			visitRecord(c, &prev, &m.Records[i], &budget)
			prev = m.Records[i]
		}
		if len(m.Records) == 0 {
			c.Fail(errors.New("rds: empty event-record list"))
		}
	}
	c.End(root)
}

// head is the envelope's own event, the first of an OpEvent batch and
// the one its first record follows. Its payload is the envelope's
// bytes, which the visit only reads.
func (m *Message) head() Event {
	return Event{DPI: m.Name, Kind: m.Entry, Payload: bytesString(m.Payload), TimeMS: m.TimeMS, Principal: m.Principal}
}

// bytesString returns b's bytes as a string without copying them; b
// must not change while the string is in use.
func bytesString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// stringBytes returns s's bytes without copying them, for encoding,
// which only reads them.
func stringBytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// visitHead opens m's envelope and visits every field but Records,
// returning the open envelope.
func (m *Message) visitHead(c *ber.Codec) ber.Seq {
	root := c.Begin(ber.TagSequence)
	ber.Int(c, &m.Op)
	if c.Decoding() && (int(m.Op) >= len(opTable) || opTable[m.Op].name == "") {
		c.Fail(fmt.Errorf("rds: unknown op %d", m.Op))
	}
	optInt(c, tagSeq, &m.Seq)
	optString(c, tagPrincipal, &m.Principal)
	optOctets(c, tagDigest, &m.Digest)
	optString(c, tagName, &m.Name)
	optString(c, tagEntry, &m.Entry)
	optString(c, tagLang, &m.Lang)
	optOctets(c, tagPayload, &m.Payload)
	var ok int8
	if m.OK {
		ok = 1
	}
	optInt(c, tagOK, &ok)
	if c.Decoding() {
		if ok < 0 || ok > 1 {
			c.Fail(fmt.Errorf("rds: OK of %d", ok))
		}
		m.OK = ok == 1
	}
	optString(c, tagError, &m.Error)
	optInt(c, tagTimeMS, &m.TimeMS)
	if c.Optional(tagArgs, len(m.Args) > 0) {
		for i := range ber.List(c, tagArgs, &m.Args, maxArgs) {
			c.String(ber.TagOctetString, &m.Args[i])
		}
		present(c, tagArgs, len(m.Args) > 0)
	}
	if c.Optional(tagInfos, len(m.Infos) > 0) {
		for i := range ber.List(c, tagInfos, &m.Infos, math.MaxInt) {
			inf := &m.Infos[i]
			one := c.Begin(ber.TagSequence)
			c.String(ber.TagOctetString, &inf.ID)
			c.String(ber.TagOctetString, &inf.DP)
			c.String(ber.TagOctetString, &inf.Entry)
			c.String(ber.TagOctetString, &inf.State)
			c.Uint(ber.TagCounter64, &inf.Steps)
			c.String(ber.TagOctetString, &inf.Result)
			c.String(ber.TagOctetString, &inf.Err)
			c.End(one)
		}
		present(c, tagInfos, len(m.Infos) > 0)
	}
	if c.Optional(tagDiags, len(m.Diags) > 0) {
		for i := range ber.List(c, tagDiags, &m.Diags, maxDiags) {
			d := &m.Diags[i]
			one := c.Begin(ber.TagSequence)
			c.String(ber.TagOctetString, &d.Code)
			c.String(ber.TagOctetString, &d.Severity)
			c.String(ber.TagOctetString, &d.Msg)
			ber.Int(c, &d.Line)
			ber.Int(c, &d.Col)
			c.End(one)
		}
		present(c, tagDiags, len(m.Diags) > 0)
	}
	return root
}

// optInt, optString and optOctets visit an optional field under tag:
// encoding, present only when non-zero; decoding, refused when present
// with its zero value.
func optInt[T ber.Integer](c *ber.Codec, tag byte, v *T) {
	if c.Optional(tag, *v != 0) {
		ber.TaggedInt(c, tag, v)
		present(c, tag, *v != 0)
	}
}

func optString(c *ber.Codec, tag byte, s *string) {
	if c.Optional(tag, *s != "") {
		c.String(tag, s)
		present(c, tag, *s != "")
	}
}

func optOctets(c *ber.Codec, tag byte, b *[]byte) {
	if c.Optional(tag, len(*b) > 0) {
		c.Octets(tag, b)
		present(c, tag, len(*b) > 0)
	}
}

// present refuses a decoded optional field that holds its zero value:
// its one encoding is to be absent.
func present(c *ber.Codec, tag byte, nonZero bool) {
	if !nonZero {
		c.Fail(fmt.Errorf("rds: field under tag 0x%02x holds its zero value", tag))
	}
}

// visitRecord visits ev as one event record following prev, each part
// only when it differs from prev: the count of leading payload bytes ev
// shares with prev, the rest of its payload, its time as a signed
// millisecond delta from prev's, then DPI, kind and principal. The
// count is the longest shared prefix, and decoding refuses any other.
// Decoding, ev holds prev on entry and keeps each field the record
// leaves out, and a payload that is all prefix is a substring of
// prev's. budget is what the frame's payloads may still total; a record
// past it is refused.
func visitRecord(c *ber.Codec, prev, ev *Event, budget *int) {
	one := c.Begin(ber.TagSequence)
	var shared int
	if !c.Decoding() {
		shared = sharedPrefix(prev.Payload, ev.Payload)
	}
	if c.Optional(tagRecShared, shared > 0) {
		ber.TaggedInt(c, tagRecShared, &shared)
		if shared <= 0 || shared > len(prev.Payload) {
			c.Fail(fmt.Errorf("rds: record shares %d bytes of a %d-byte payload", shared, len(prev.Payload)))
			shared = 0
		}
	}
	var rest []byte
	if !c.Decoding() {
		rest = stringBytes(ev.Payload[shared:])
	}
	if c.Optional(ber.TagOctetString, len(rest) > 0) {
		c.Alias(ber.TagOctetString, &rest)
		present(c, ber.TagOctetString, len(rest) > 0)
	}
	if *budget -= shared + len(rest); *budget < 0 {
		c.Fail(fmt.Errorf("rds: event records rebuild more than %d payload bytes", MaxFrame))
	}
	if c.Decoding() && c.Err() == nil {
		if shared < len(prev.Payload) && len(rest) > 0 && prev.Payload[shared] == rest[0] {
			c.Fail(errors.New("rds: record shares fewer payload bytes than it could"))
		}
		ev.Payload = joinPayload(prev.Payload[:shared], rest)
	}
	delta := ev.TimeMS - prev.TimeMS
	optInt(c, ber.TagInteger, &delta)
	if c.Decoding() {
		ev.TimeMS = prev.TimeMS + delta
	}
	optChange(c, tagRecDPI, &ev.DPI, prev.DPI)
	optChange(c, tagRecKind, &ev.Kind, prev.Kind)
	optChange(c, tagRecPrincipal, &ev.Principal, prev.Principal)
	c.End(one)
}

// optChange visits a record's string field under tag, present only
// when it differs from the event before's, was; decoding refuses one
// that repeats it.
func optChange(c *ber.Codec, tag byte, s *string, was string) {
	if c.Optional(tag, *s != was) {
		c.String(tag, s)
		if *s == was {
			c.Fail(fmt.Errorf("rds: record field under tag 0x%02x repeats the event before", tag))
		}
	}
}

// sharedPrefix returns the length of the longest common prefix of a
// and b.
func sharedPrefix(a, b string) int {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// joinPayload returns prefix followed by rest in one string: prefix
// itself when rest is empty, else a string of its own.
func joinPayload(prefix string, rest []byte) string {
	if len(rest) == 0 {
		return prefix
	}
	b := make([]byte, len(prefix)+len(rest))
	copy(b[copy(b, prefix):], rest)
	return bytesString(b)
}
