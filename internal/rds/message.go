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
	// TimeMS, Principal). On the wire each record holds its payload, its
	// time as a delta from the event before, and only those of DPI, kind
	// and principal that differ from the event before (visitRecord).
	Records []Event
}

// maxArgs bounds decoded argument lists defensively.
const maxArgs = 1024

// maxDiags bounds decoded diagnostic lists defensively.
const maxDiags = 4096

// maxRecords bounds decoded event-record lists defensively: a frame
// never carries more than one drained subscriber queue.
const maxRecords = subscriberQueueDepth

// Record field tags: a record's DPI, kind and principal travel as
// context-specific [0], [1], [2] and only when they differ from the
// event before. An absent field means "unchanged".
const (
	tagRecDPI       = byte(ber.ClassContext) | 0
	tagRecKind      = byte(ber.ClassContext) | 1
	tagRecPrincipal = byte(ber.ClassContext) | 2
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

// Decode parses a BER-encoded message. Every frame takes this path, so
// it runs visit directly rather than through decode, keeping the codec
// off the heap.
func Decode(b []byte) (*Message, error) {
	m := &Message{}
	c := ber.Decoder(b)
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
// nil when b is not an encoding of it.
func decode[T any](b []byte, v *T, visit func(*T, *ber.Codec)) (*T, error) {
	c := ber.Decoder(b)
	visit(v, &c)
	if err := c.Finish(); err != nil {
		return nil, err
	}
	return v, nil
}

// visit runs m's wire format through c: the envelope's fields, then
// its event records, which only an OpEvent batch carries and never
// empty.
func (m *Message) visit(c *ber.Codec) {
	root := m.visitHead(c)
	if c.Optional(ber.TagSequence, len(m.Records) > 0) {
		if m.Op != OpEvent {
			c.Fail(errors.New("rds: event records on a non-event message"))
		}
		prev := m.head()
		for i := range ber.List(c, &m.Records, maxRecords) {
			if c.Decoding() {
				m.Records[i] = prev
			}
			visitRecord(c, &prev, &m.Records[i])
			prev = m.Records[i]
		}
		if len(m.Records) == 0 {
			c.Fail(errors.New("rds: empty event-record list"))
		}
	}
	c.End(root)
}

// head is the envelope's own event, the first of an OpEvent batch and
// the one its first record follows, less its payload (which no record
// refers to).
func (m *Message) head() Event {
	return Event{DPI: m.Name, Kind: m.Entry, TimeMS: m.TimeMS, Principal: m.Principal}
}

// visitHead opens m's envelope and visits every field but Records,
// returning the open envelope. The diagnostics are a later protocol
// addition that a decoded message may lack.
func (m *Message) visitHead(c *ber.Codec) ber.Seq {
	root := c.Begin(ber.TagSequence)
	ber.Int(c, &m.Op)
	if c.Decoding() && (int(m.Op) >= len(opTable) || opTable[m.Op].name == "") {
		c.Fail(fmt.Errorf("rds: unknown op %d", m.Op))
	}
	ber.Int(c, &m.Seq)
	c.String(ber.TagOctetString, &m.Principal)
	c.Octets(ber.TagOctetString, &m.Digest)
	c.String(ber.TagOctetString, &m.Name)
	c.String(ber.TagOctetString, &m.Entry)
	c.String(ber.TagOctetString, &m.Lang)
	c.Octets(ber.TagOctetString, &m.Payload)
	c.Bool(&m.OK)
	c.String(ber.TagOctetString, &m.Error)
	ber.Int(c, &m.TimeMS)
	for i := range ber.List(c, &m.Args, maxArgs) {
		c.String(ber.TagOctetString, &m.Args[i])
	}
	for i := range ber.List(c, &m.Infos, math.MaxInt) {
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
	if c.Optional(ber.TagSequence, true) {
		for i := range ber.List(c, &m.Diags, maxDiags) {
			d := &m.Diags[i]
			one := c.Begin(ber.TagSequence)
			c.String(ber.TagOctetString, &d.Code)
			c.String(ber.TagOctetString, &d.Severity)
			c.String(ber.TagOctetString, &d.Msg)
			ber.Int(c, &d.Line)
			ber.Int(c, &d.Col)
			c.End(one)
		}
	}
	return root
}

// visitRecord visits ev as one event record following prev: its
// payload, its time as a signed millisecond delta from prev's, then
// whichever of DPI, kind and principal differ from prev's. Decoding, ev
// holds prev on entry and keeps each field the record leaves out.
func visitRecord(c *ber.Codec, prev, ev *Event) {
	one := c.Begin(ber.TagSequence)
	c.String(ber.TagOctetString, &ev.Payload)
	delta := ev.TimeMS - prev.TimeMS
	ber.Int(c, &delta)
	if c.Decoding() {
		ev.TimeMS = prev.TimeMS + delta
	}
	if c.Optional(tagRecDPI, ev.DPI != prev.DPI) {
		c.String(tagRecDPI, &ev.DPI)
	}
	if c.Optional(tagRecKind, ev.Kind != prev.Kind) {
		c.String(tagRecKind, &ev.Kind)
	}
	if c.Optional(tagRecPrincipal, ev.Principal != prev.Principal) {
		c.String(tagRecPrincipal, &ev.Principal)
	}
	c.End(one)
}
