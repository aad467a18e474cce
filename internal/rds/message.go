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

// Op is an RDS operation code.
type Op uint8

// RDS operations.
const (
	// OpDelegate transfers a DP (Name, Lang, Payload=source).
	OpDelegate Op = iota + 1
	// OpInstantiate creates a DPI (Name=dp, Entry, Args).
	OpInstantiate
	// OpControl applies a lifecycle action (Name=dpiID, Entry=action).
	OpControl
	// OpSend delivers a message to a DPI's mailbox (Name=dpiID,
	// Payload=message).
	OpSend
	// OpQuery asks for instance status (Name=dpiID or empty for all).
	OpQuery
	// OpDeleteDP removes a program from the repository (Name).
	OpDeleteDP
	// OpSubscribe asks the server to forward DPI events on this
	// connection (Name=dpi id prefix filter, empty for all).
	OpSubscribe
	// OpReply answers any request (OK, Error, Name holds a created id,
	// Infos holds query results).
	OpReply
	// OpEvent is a server-initiated event notification (Name=dpiID,
	// Entry=kind, Payload, TimeMS).
	OpEvent
	// OpEval is one-shot remote evaluation (the REV model the paper
	// compares against): Payload=source, Entry=entry, Args; the reply's
	// Payload carries the rendered result. Nothing persists server-side.
	OpEval
	// OpStats asks the server for its own telemetry: Entry selects the
	// view — "metrics" (Prometheus text exposition), "trace" (the
	// delegation-lifecycle span ring as JSON, Name = max spans) or
	// "federation" (the management-domain status document as JSON). The
	// reply's Payload carries the rendered document.
	OpStats
	// OpPeerJoin registers a federation member with its domain root
	// (Name=member, Entry=member's own domain, Payload=the member's
	// advertised RDS address for cascaded delegation).
	OpPeerJoin
	// Codes 13 and 15 carried peer-heartbeat and peer-report until
	// OpPeerSync subsumed both. They stay unassigned (see reservedOp) so
	// every other op keeps its wire encoding.
	_
	// OpPeerDelegate cascades a delegation through the domain tree
	// (Name=dp, Lang, Payload=source, Entry=optional entry point to
	// instantiate after admission, Args=its arguments). The reply's
	// Payload carries a BER-encoded FanoutResult collecting every
	// member's accept/reject outcome.
	OpPeerDelegate
	_
	// OpPeerSync is the batched child→parent frame: one datagram-sized
	// message carrying the member's heartbeat, every pending rollup
	// delta, and the bundle hashes it runs (Name=member, Payload=a
	// BER-encoded SyncBatch).
	OpPeerSync
	// OpPeerBundleStage stages a content-addressed golden DP bundle
	// (Name=lineage, Entry=sha256 hex of the canonical bundle encoding,
	// Payload=the encoded Bundle — empty for a probe asking "do you
	// already hold this hash?"). The reply's Payload carries a
	// BER-encoded StageResult; a probe miss answers with an
	// unknown-bundle error so the parent re-sends the full payload.
	OpPeerBundleStage
	// OpPeerBundleActivate flips a lineage's active-version pointer to
	// an already-staged hash across the subtree (Name=lineage,
	// Entry=hash). The reply's Payload carries a FanoutResult with every
	// member's activation outcome. Activating a previously active hash
	// is the rollback path.
	OpPeerBundleActivate
	// OpView manages the server's incrementally-maintained VDL views.
	// Entry selects the verb: "status" (or empty) lists maintained
	// views and maintenance counters, "define" installs a view
	// (Payload=VDL source), "query" reads one view's current rows
	// (Name=view). Replies carry JSON payloads.
	OpView
)

// opMax is the highest assigned operation code; Decode rejects anything
// beyond it.
const opMax = OpView

// reservedOp reports the two retired codes inside the assigned range;
// Decode rejects them like any unknown op.
func reservedOp(o Op) bool { return o == OpPeerJoin+1 || o == OpPeerDelegate+1 }

// String names the op.
func (o Op) String() string {
	switch o {
	case OpDelegate:
		return "delegate"
	case OpInstantiate:
		return "instantiate"
	case OpControl:
		return "control"
	case OpSend:
		return "send"
	case OpQuery:
		return "query"
	case OpDeleteDP:
		return "delete-dp"
	case OpSubscribe:
		return "subscribe"
	case OpReply:
		return "reply"
	case OpEvent:
		return "event"
	case OpEval:
		return "eval"
	case OpStats:
		return "stats"
	case OpPeerJoin:
		return "peer-join"
	case OpPeerDelegate:
		return "peer-delegate"
	case OpPeerSync:
		return "peer-sync"
	case OpPeerBundleStage:
		return "peer-bundle-stage"
	case OpPeerBundleActivate:
		return "peer-bundle-activate"
	case OpView:
		return "view"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

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
}

// maxArgs bounds decoded argument lists defensively.
const maxArgs = 1024

// maxDiags bounds decoded diagnostic lists defensively.
const maxDiags = 4096

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
	w.EndSeq(root)
	return w.Bytes()
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
	if op <= 0 || op > int64(opMax) || reservedOp(Op(op)) {
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
	return m, nil
}
