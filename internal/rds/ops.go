package rds

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/elastic"
)

// Op is an RDS operation code.
type Op uint8

// RDS operations. Each one's contract — name, retry class, timeout,
// required subsystem and handler — is its row in opTable below.
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
	// Entry=kind, Payload, TimeMS, Principal); Records carries the later
	// events of the same drained batch.
	OpEvent
	// OpEval is one-shot remote evaluation (the REV model the paper
	// compares against): Payload=source, Entry=entry, Args; the reply's
	// Payload carries the rendered result. Nothing persists server-side.
	OpEval
	// OpStats asks the server for its own telemetry: Entry selects the
	// view — "metrics" (Prometheus text exposition), "trace" (the
	// delegation-lifecycle span ring as JSON, Name = max spans),
	// "federation" (the management-domain status document as JSON) or
	// "tenants" (the tenant table as JSON). The reply's Payload carries
	// the rendered document.
	OpStats
	// OpPeerJoin registers a federation member with its domain root
	// (Name=member, Entry=member's own domain, Payload=the member's
	// advertised RDS address for cascaded delegation).
	OpPeerJoin
	// Codes 13 and 15 carried peer-heartbeat and peer-report until
	// OpPeerSync subsumed both. They have no opTable row, so Decode
	// refuses them and every other op keeps its wire encoding.
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

// retryClass says whether a client may re-send a request whose outcome
// it never learned. The zero value marks a row that is not a request.
type retryClass uint8

const (
	_ retryClass = iota
	// mutating requests are sent once: a lost reply may hide an effect
	// that a second copy would repeat.
	mutating
	// idempotent requests may be re-sent: across a stream client's
	// reconnect outage, or after a datagram client's lost reply.
	idempotent
)

// subsystem is what a server must be built with to answer an op.
type subsystem uint8

const (
	_          subsystem = iota
	federation           // WithPeerHandler; absent: ErrNoFederation
	viewEngine           // WithViewHandler; absent: ErrNoViews
)

// opSpec is one operation's contract. serve answers the request by
// filling resp; dispatch discards resp when serve errs.
type opSpec struct {
	name    string
	retry   retryClass
	timeout time.Duration // >0 bounds serve
	needs   subsystem
	serve   func(s *Server, ctx context.Context, req, resp *Message) error
	// verbs, for ops whose Entry names a sub-verb, hold one row per verb
	// (named by it); the first also answers an empty Entry. noun names
	// the verb in the unknown-verb error.
	verbs []opSpec
	noun  string
}

// opTable is every assigned op, indexed by code. Reply and event carry
// only a name; subscribe has no handler because the stream transport's
// loop owns the subscriber queue.
var opTable = [...]opSpec{
	OpDelegate: {name: "delegate", retry: mutating, serve: func(s *Server, _ context.Context, req, _ *Message) error {
		if req.Lang == LangCompiled {
			return s.proc.DelegateCompiled(req.Principal, req.Name, req.Payload)
		}
		return s.proc.Delegate(req.Principal, req.Name, req.Lang, string(req.Payload))
	}},
	OpInstantiate: {name: "instantiate", retry: mutating, serve: func(s *Server, _ context.Context, req, resp *Message) error {
		d, err := s.proc.Instantiate(req.Principal, req.Name, req.Entry, parseArgs(req.Args)...)
		if err == nil {
			resp.Name = d.ID
		}
		return err
	}},
	OpControl: {name: "control", retry: mutating, serve: func(s *Server, _ context.Context, req, _ *Message) error {
		return s.proc.Control(req.Principal, req.Name, elastic.ControlAction(req.Entry))
	}},
	OpSend: {name: "send", retry: mutating, serve: func(s *Server, _ context.Context, req, _ *Message) error {
		return s.proc.Send(req.Principal, req.Name, string(req.Payload))
	}},
	OpQuery: {name: "query", retry: idempotent, serve: func(s *Server, _ context.Context, req, resp *Message) error {
		infos, err := s.proc.Query(req.Principal, req.Name)
		for _, inf := range infos {
			resp.Infos = append(resp.Infos, InfoRec{
				ID: inf.ID, DP: inf.DP, Entry: inf.Entry, State: inf.State,
				Steps: inf.Steps, Result: inf.Result, Err: inf.Err,
			})
		}
		return err
	}},
	OpDeleteDP: {name: "delete-dp", retry: mutating, serve: func(s *Server, _ context.Context, req, _ *Message) error {
		return s.proc.DeleteDP(req.Principal, req.Name)
	}},
	OpSubscribe: {name: "subscribe", retry: mutating},
	OpReply:     {name: "reply"},
	OpEvent:     {name: "event"},
	// A runaway eval must not hold a connection's request loop forever.
	OpEval: {name: "eval", retry: mutating, timeout: time.Minute, serve: func(s *Server, ctx context.Context, req, resp *Message) error {
		v, err := s.proc.Evaluate(ctx, req.Principal, "dpl", string(req.Payload), req.Entry, parseArgs(req.Args)...)
		if err == nil {
			resp.Payload = []byte(dpl.Format(v))
		}
		return err
	}},
	OpStats: {name: "stats", noun: "stats view", verbs: []opSpec{
		{name: "metrics", retry: idempotent, serve: func(s *Server, _ context.Context, _, resp *Message) error {
			var b bytes.Buffer
			err := s.reg.WritePrometheus(&b)
			resp.Payload = b.Bytes()
			return err
		}},
		{name: "trace", retry: idempotent, serve: func(s *Server, _ context.Context, req, resp *Message) error {
			max := 0
			if req.Name != "" {
				n, err := strconv.Atoi(req.Name)
				if err != nil || n < 0 {
					return fmt.Errorf("rds: bad trace limit %q", req.Name)
				}
				max = n
			}
			var b bytes.Buffer
			err := s.tracer.WriteJSON(&b, max)
			resp.Payload = b.Bytes()
			return err
		}},
		{name: "federation", retry: idempotent, needs: federation, serve: func(s *Server, _ context.Context, _, resp *Message) (err error) {
			resp.Payload, err = s.peers.StatusJSON()
			return err
		}},
		{name: "tenants", retry: idempotent, serve: func(s *Server, _ context.Context, _, resp *Message) (err error) {
			resp.Payload, err = s.proc.TenantStatusJSON()
			return err
		}},
	}},
	OpPeerJoin: {name: "peer-join", retry: mutating, needs: federation, serve: func(s *Server, _ context.Context, req, _ *Message) error {
		return s.peers.PeerJoin(req.Principal, req.Name, req.Entry, string(req.Payload))
	}},
	// A fan-out op's timeout bounds the whole cascade: every hop of the
	// domain tree must answer within it.
	OpPeerDelegate: {name: "peer-delegate", retry: mutating, timeout: time.Minute, needs: federation,
		serve: func(s *Server, ctx context.Context, req, resp *Message) error {
			res, err := s.peers.PeerDelegate(ctx, req.Principal, req.Name, req.Lang,
				string(req.Payload), req.Entry, req.Args)
			return encodeResult(resp, res, err)
		}},
	OpPeerSync: {name: "peer-sync", retry: mutating, needs: federation, serve: func(s *Server, _ context.Context, req, _ *Message) error {
		batch, err := DecodeSyncBatch(req.Payload)
		if err != nil {
			return err
		}
		return s.peers.PeerSync(req.Principal, req.Name, batch)
	}},
	OpPeerBundleStage: {name: "peer-bundle-stage", retry: mutating, timeout: time.Minute, needs: federation,
		serve: func(s *Server, ctx context.Context, req, resp *Message) error {
			res, err := s.peers.PeerBundleStage(ctx, req.Principal, req.Name, req.Entry, req.Payload)
			return encodeResult(resp, res, err)
		}},
	OpPeerBundleActivate: {name: "peer-bundle-activate", retry: mutating, timeout: time.Minute, needs: federation,
		serve: func(s *Server, ctx context.Context, req, resp *Message) error {
			res, err := s.peers.PeerBundleActivate(ctx, req.Principal, req.Name, req.Entry)
			return encodeResult(resp, res, err)
		}},
	// Defining the same source twice converges to the same state, so
	// every view verb is idempotent.
	OpView: {name: "view", noun: "view verb", needs: viewEngine, verbs: []opSpec{
		{name: "status", retry: idempotent, serve: func(s *Server, _ context.Context, _, resp *Message) (err error) {
			resp.Payload, err = s.views.StatusJSON()
			return err
		}},
		{name: "define", retry: idempotent, serve: func(s *Server, _ context.Context, req, resp *Message) (err error) {
			resp.Payload, err = s.views.DefineJSON(string(req.Payload))
			return err
		}},
		{name: "query", retry: idempotent, serve: func(s *Server, _ context.Context, req, resp *Message) (err error) {
			resp.Payload, err = s.views.QueryJSON(req.Name)
			return err
		}},
	}},
}

// String names the op.
func (o Op) String() string {
	if int(o) < len(opTable) && opTable[o].name != "" {
		return opTable[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// verb returns the row entry names among sp's verbs.
func (sp *opSpec) verb(entry string) (*opSpec, error) {
	if entry == "" {
		return &sp.verbs[0], nil
	}
	for i := range sp.verbs {
		if sp.verbs[i].name == entry {
			return &sp.verbs[i], nil
		}
	}
	return nil, fmt.Errorf("rds: unknown %s %q", sp.noun, entry)
}

// canRetry reports whether req's row is idempotent.
func canRetry(req *Message) bool {
	sp := &opTable[req.Op]
	if sp.verbs != nil {
		sp, _ = sp.verb(req.Entry)
	}
	return sp != nil && sp.retry == idempotent
}

// route returns the row answering req — its op's, or its verb's —
// once s has every subsystem the rows on the way need.
func (s *Server) route(req *Message) (sp *opSpec, err error) {
	sp = &opTable[req.Op]
	for {
		switch {
		case sp.needs == federation && s.peers == nil:
			return nil, ErrNoFederation
		case sp.needs == viewEngine && s.views == nil:
			return nil, ErrNoViews
		case sp.verbs != nil:
			if sp, err = sp.verb(req.Entry); err != nil {
				return nil, err
			}
		case sp.retry == 0:
			return nil, fmt.Errorf("rds: cannot serve %s", req.Op)
		default:
			return sp, nil
		}
	}
}

// dispatch answers req through its row. A row without a handler
// (subscribe) is answered OK; the transport completes it.
func (s *Server) dispatch(ctx context.Context, req *Message) *Message {
	sp, err := s.route(req)
	resp := &Message{Op: OpReply, Seq: req.Seq, OK: true}
	if err == nil && sp.serve != nil {
		if sp.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, sp.timeout)
			defer cancel()
		}
		err = sp.serve(s, ctx, req, resp)
	}
	if err != nil {
		return reply(req, err)
	}
	return resp
}

func parseArgs(ss []string) []any {
	args := make([]any, len(ss))
	for i, a := range ss {
		args[i] = ParseArg(a)
	}
	return args
}

// encodeResult puts a peer handler's BER result in resp. A handler
// answering neither a result nor an error is refused, not encoded.
func encodeResult[T any, R interface {
	*T
	Encode() []byte
}](resp *Message, res R, err error) error {
	if err == nil && res == nil {
		err = errors.New("rds: peer handler returned no result")
	}
	if err == nil {
		resp.Payload = res.Encode()
	}
	return err
}
