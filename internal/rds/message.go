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
	// and principal that differ from the event before (appendRecord).
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
func (m *Message) AppendEncode(dst []byte) []byte {
	w := ber.NewWriter(dst)
	root := m.appendHead(&w)
	if len(m.Records) > 0 {
		recs := w.BeginSeq(ber.TagSequence)
		prev := m.head()
		for i := range m.Records {
			appendRecord(&w, &prev, &m.Records[i])
			prev = m.Records[i]
		}
		w.EndSeq(recs)
	}
	w.EndSeq(root)
	return w.Bytes()
}

// head is the envelope's own event, the first of an OpEvent batch and
// the one its first record follows, less its payload (which no record
// refers to).
func (m *Message) head() Event {
	return Event{DPI: m.Name, Kind: m.Entry, TimeMS: m.TimeMS, Principal: m.Principal}
}

// appendHead opens m's envelope and writes every field but Records,
// returning the envelope's marker for EndSeq.
func (m *Message) appendHead(w *ber.Writer) int {
	root := w.BeginSeq(ber.TagSequence)
	w.AppendInt(ber.TagInteger, int64(m.Op))
	w.AppendInt(ber.TagInteger, int64(m.Seq))
	w.AppendString(ber.TagOctetString, []byte(m.Principal))
	w.AppendString(ber.TagOctetString, m.Digest)
	w.AppendString(ber.TagOctetString, []byte(m.Name))
	w.AppendString(ber.TagOctetString, []byte(m.Entry))
	w.AppendString(ber.TagOctetString, []byte(m.Lang))
	w.AppendString(ber.TagOctetString, m.Payload)
	ok := int64(0)
	if m.OK {
		ok = 1
	}
	w.AppendInt(ber.TagInteger, ok)
	w.AppendString(ber.TagOctetString, []byte(m.Error))
	w.AppendInt(ber.TagInteger, m.TimeMS)
	args := w.BeginSeq(ber.TagSequence)
	for _, a := range m.Args {
		w.AppendString(ber.TagOctetString, []byte(a))
	}
	w.EndSeq(args)
	infos := w.BeginSeq(ber.TagSequence)
	for _, inf := range m.Infos {
		one := w.BeginSeq(ber.TagSequence)
		w.AppendString(ber.TagOctetString, []byte(inf.ID))
		w.AppendString(ber.TagOctetString, []byte(inf.DP))
		w.AppendString(ber.TagOctetString, []byte(inf.Entry))
		w.AppendString(ber.TagOctetString, []byte(inf.State))
		w.AppendUint(ber.TagCounter64, inf.Steps)
		w.AppendString(ber.TagOctetString, []byte(inf.Result))
		w.AppendString(ber.TagOctetString, []byte(inf.Err))
		w.EndSeq(one)
	}
	w.EndSeq(infos)
	diags := w.BeginSeq(ber.TagSequence)
	for _, d := range m.Diags {
		one := w.BeginSeq(ber.TagSequence)
		w.AppendString(ber.TagOctetString, []byte(d.Code))
		w.AppendString(ber.TagOctetString, []byte(d.Severity))
		w.AppendString(ber.TagOctetString, []byte(d.Msg))
		w.AppendInt(ber.TagInteger, d.Line)
		w.AppendInt(ber.TagInteger, d.Col)
		w.EndSeq(one)
	}
	w.EndSeq(diags)
	return root
}

// appendRecord writes ev as one event record following prev: its
// payload, its time as a signed millisecond delta from prev's, then
// whichever of DPI, kind and principal differ from prev's.
func appendRecord(w *ber.Writer, prev, ev *Event) {
	one := w.BeginSeq(ber.TagSequence)
	w.AppendString(ber.TagOctetString, []byte(ev.Payload))
	w.AppendInt(ber.TagInteger, ev.TimeMS-prev.TimeMS)
	if ev.DPI != prev.DPI {
		w.AppendString(tagRecDPI, []byte(ev.DPI))
	}
	if ev.Kind != prev.Kind {
		w.AppendString(tagRecKind, []byte(ev.Kind))
	}
	if ev.Principal != prev.Principal {
		w.AppendString(tagRecPrincipal, []byte(ev.Principal))
	}
	w.EndSeq(one)
}

// Decode parses a BER-encoded message.
func Decode(b []byte) (*Message, error) {
	r, err := ber.NewReader(b).EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, fmt.Errorf("rds: bad envelope: %w", err)
	}
	m := &Message{}
	_, op, err := r.ReadInt()
	if err != nil {
		return nil, err
	}
	if op <= 0 || op >= int64(len(opTable)) || opTable[op].name == "" {
		return nil, fmt.Errorf("rds: unknown op %d", op)
	}
	m.Op = Op(op)
	_, seq, err := r.ReadInt()
	if err != nil {
		return nil, err
	}
	m.Seq = uint32(seq)
	strs := make([]string, 0, 6)
	for i := 0; i < 2; i++ { // principal, digest
		_, s, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		strs = append(strs, string(s))
	}
	m.Principal = strs[0]
	if strs[1] != "" {
		m.Digest = []byte(strs[1])
	}
	fields := []*string{&m.Name, &m.Entry, &m.Lang}
	for _, f := range fields {
		_, s, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		*f = string(s)
	}
	_, payload, err := r.ReadString()
	if err != nil {
		return nil, err
	}
	if len(payload) > 0 {
		m.Payload = payload
	}
	_, okv, err := r.ReadInt()
	if err != nil {
		return nil, err
	}
	m.OK = okv != 0
	_, errStr, err := r.ReadString()
	if err != nil {
		return nil, err
	}
	m.Error = string(errStr)
	_, tms, err := r.ReadInt()
	if err != nil {
		return nil, err
	}
	m.TimeMS = tms
	ar, err := r.EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, err
	}
	for !ar.Empty() {
		if len(m.Args) >= maxArgs {
			return nil, errors.New("rds: too many arguments")
		}
		_, s, err := ar.ReadString()
		if err != nil {
			return nil, err
		}
		m.Args = append(m.Args, string(s))
	}
	ir, err := r.EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, err
	}
	for !ir.Empty() {
		one, err := ir.EnterSeq(ber.TagSequence)
		if err != nil {
			return nil, err
		}
		var inf InfoRec
		for _, f := range []*string{&inf.ID, &inf.DP, &inf.Entry, &inf.State} {
			_, s, err := one.ReadString()
			if err != nil {
				return nil, err
			}
			*f = string(s)
		}
		_, steps, err := one.ReadUint()
		if err != nil {
			return nil, err
		}
		inf.Steps = steps
		for _, f := range []*string{&inf.Result, &inf.Err} {
			_, s, err := one.ReadString()
			if err != nil {
				return nil, err
			}
			*f = string(s)
		}
		m.Infos = append(m.Infos, inf)
	}
	// The diagnostics sequence is a later protocol addition; accept its
	// absence for messages from older encoders.
	if r.Empty() {
		return m, nil
	}
	dr, err := r.EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, err
	}
	for !dr.Empty() {
		if len(m.Diags) >= maxDiags {
			return nil, errors.New("rds: too many diagnostics")
		}
		one, err := dr.EnterSeq(ber.TagSequence)
		if err != nil {
			return nil, err
		}
		var d DiagRec
		for _, f := range []*string{&d.Code, &d.Severity, &d.Msg} {
			_, s, err := one.ReadString()
			if err != nil {
				return nil, err
			}
			*f = string(s)
		}
		for _, f := range []*int64{&d.Line, &d.Col} {
			_, v, err := one.ReadInt()
			if err != nil {
				return nil, err
			}
			*f = v
		}
		m.Diags = append(m.Diags, d)
	}
	// The event records are a later addition still: a batch of one
	// carries none.
	if r.Empty() {
		return m, nil
	}
	if m.Op != OpEvent {
		return nil, errors.New("rds: event records on a non-event message")
	}
	rr, err := r.Seq(ber.TagSequence)
	if err != nil {
		return nil, err
	}
	if !r.Empty() {
		return nil, errors.New("rds: trailing bytes after event records")
	}
	n := 0
	for count := rr; !count.Empty(); n++ {
		if n == maxRecords {
			return nil, errors.New("rds: too many event records")
		}
		if _, _, err := count.ReadTLV(); err != nil {
			return nil, err
		}
	}
	if n == 0 {
		return nil, errors.New("rds: empty event-record list")
	}
	m.Records = make([]Event, n)
	prev := m.head()
	for i := range m.Records {
		if err := decodeRecord(&rr, &prev); err != nil {
			return nil, err
		}
		m.Records[i] = prev
	}
	return m, nil
}

// decodeRecord reads the next event record from r and applies it to
// prev, which then holds the record's event.
func decodeRecord(r *ber.Reader, prev *Event) error {
	one, err := r.Seq(ber.TagSequence)
	if err != nil {
		return err
	}
	tag, payload, err := one.ReadTLV()
	if err != nil {
		return err
	}
	if tag != ber.TagOctetString {
		return fmt.Errorf("rds: event record payload has tag 0x%02x", tag)
	}
	tag, delta, err := one.ReadInt()
	if err != nil {
		return err
	}
	if tag != ber.TagInteger {
		return fmt.Errorf("rds: event record time has tag 0x%02x", tag)
	}
	prev.Payload = string(payload)
	prev.TimeMS += delta
	fields := [...]*string{&prev.DPI, &prev.Kind, &prev.Principal}
	next := tagRecDPI
	for !one.Empty() {
		tag, s, err := one.ReadTLV()
		if err != nil {
			return err
		}
		if tag < next || tag > tagRecPrincipal {
			return fmt.Errorf("rds: event record field has tag 0x%02x", tag)
		}
		*fields[tag-tagRecDPI] = string(s)
		next = tag + 1
	}
	return nil
}
