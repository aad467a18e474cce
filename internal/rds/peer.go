package rds

import (
	"context"
	"errors"

	"mbd/internal/ber"
)

// This file carries the federation (peer) side of the protocol: the
// wire form of cascaded-delegation results and the client verbs for the
// peer operations. The server routes those operations to a
// PeerHandler (see WithPeerHandler); internal/federation provides the
// real implementation.

// PeerHandler receives the federation operations a server cannot answer
// from its elastic process alone. internal/federation.Node implements
// it; servers without one refuse peer traffic.
type PeerHandler interface {
	// PeerJoin registers (or refreshes) a member of this node's domain.
	// addr is the member's advertised RDS address, used to cascade
	// delegations down to it.
	PeerJoin(principal, member, domain, addr string) error
	// PeerDelegate admits the program locally and cascades it to every
	// live member, collecting per-member outcomes. A non-empty entry
	// also instantiates the program at each accepting hop.
	PeerDelegate(ctx context.Context, principal, dp, lang, source, entry string, args []string) (*FanoutResult, error)
	// PeerSync applies one batched child frame: heartbeat semantics for
	// member plus every carried rollup delta and bundle status. An
	// unknown member must be answered with an error so the child
	// re-joins.
	PeerSync(principal, member string, batch *SyncBatch) error
	// PeerBundleStage stages a content-addressed golden bundle across
	// the subtree. An empty bundle payload is a probe: a handler not
	// holding hash answers with an unknown-bundle error so the caller
	// re-sends the full payload.
	PeerBundleStage(ctx context.Context, principal, lineage, hash string, bundle []byte) (*StageResult, error)
	// PeerBundleActivate flips lineage's active-version pointer to an
	// already-staged hash across the subtree (rollback is activating a
	// previously active hash).
	PeerBundleActivate(ctx context.Context, principal, lineage, hash string) (*FanoutResult, error)
	// StatusJSON renders the domain status document served by the
	// OpStats "federation" view.
	StatusJSON() ([]byte, error)
}

// ErrNoFederation reports a peer operation sent to a server that has no
// PeerHandler configured.
var ErrNoFederation = errors.New("rds: federation not enabled on this server")

// FanoutOutcome is one hop's result in a cascaded delegation: whether
// the member's elastic process admitted the program, and the instance
// id when an entry point was also started.
type FanoutOutcome struct {
	// Member is the server (member) name that produced this outcome.
	Member string
	// Domain is the management domain the member belongs to.
	Domain string
	// Addr is the RDS address the delegation travelled to ("local" for
	// the node answering the request itself).
	Addr string
	// OK reports admission; a false OK carries the reason in Err.
	OK bool
	// DPI is the started instance id when an entry was requested and
	// admission succeeded.
	DPI string
	// Err is the admission or transport failure rendering.
	Err string
}

// FanoutResult collects every member's outcome for one cascaded
// delegation of DP through a domain tree.
type FanoutResult struct {
	DP       string
	Outcomes []FanoutOutcome
}

// maxOutcomes bounds decoded outcome lists defensively.
const maxOutcomes = 65536

// Accepted counts outcomes that admitted the program.
func (r *FanoutResult) Accepted() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.OK {
			n++
		}
	}
	return n
}

// Rejected counts outcomes that refused the program (admission or
// transport failure).
func (r *FanoutResult) Rejected() int { return len(r.Outcomes) - r.Accepted() }

// AppendEncode serializes r with BER appended to dst, returning the
// extended slice.
func (r *FanoutResult) AppendEncode(dst []byte) []byte { return encode(dst, r, (*FanoutResult).visit) }

// Encode serializes r with BER.
func (r *FanoutResult) Encode() []byte { return r.AppendEncode(nil) }

// DecodeFanoutResult parses a BER-encoded FanoutResult.
func DecodeFanoutResult(b []byte) (*FanoutResult, error) {
	return decode(b, &FanoutResult{}, (*FanoutResult).visit)
}

// visit runs r's wire format through c.
func (r *FanoutResult) visit(c *ber.Codec) {
	root := c.Begin(ber.TagSequence)
	c.String(ber.TagOctetString, &r.DP)
	for i := range ber.List(c, ber.TagSequence, &r.Outcomes, maxOutcomes) {
		o := &r.Outcomes[i]
		one := c.Begin(ber.TagSequence)
		c.String(ber.TagOctetString, &o.Member)
		c.String(ber.TagOctetString, &o.Domain)
		c.String(ber.TagOctetString, &o.Addr)
		c.Bool(&o.OK)
		c.String(ber.TagOctetString, &o.DPI)
		c.String(ber.TagOctetString, &o.Err)
		c.End(one)
	}
	c.End(root)
}

// PeerJoin registers this client's principal as member of the server's
// domain. domain is the member's own domain name; addr is the member's
// advertised RDS address, which the root dials to cascade delegations.
func (c *Client) PeerJoin(ctx context.Context, member, domain, addr string) error {
	_, err := c.call(ctx, &Message{Op: OpPeerJoin, Name: member, Entry: domain, Payload: []byte(addr)})
	return err
}

// PeerDelegate cascades source through the server's domain tree and
// returns the collected per-member outcomes. A non-empty entry also
// instantiates the program (entry(args...)) at every accepting member.
func (c *Client) PeerDelegate(ctx context.Context, dp, source, entry string, args ...string) (*FanoutResult, error) {
	m, err := c.call(ctx, &Message{
		Op: OpPeerDelegate, Name: dp, Lang: "dpl",
		Payload: []byte(source), Entry: entry, Args: args,
	})
	if err != nil {
		return nil, err
	}
	return DecodeFanoutResult(m.Payload)
}

// PeerDelegateCompiled cascades a verified-bytecode artifact through
// the server's domain tree: each hop verifies the object code instead
// of re-running source analysis.
func (c *Client) PeerDelegateCompiled(ctx context.Context, dp string, program []byte, entry string, args ...string) (*FanoutResult, error) {
	m, err := c.call(ctx, &Message{
		Op: OpPeerDelegate, Name: dp, Lang: LangCompiled,
		Payload: program, Entry: entry, Args: args,
	})
	if err != nil {
		return nil, err
	}
	return DecodeFanoutResult(m.Payload)
}

// DomainStatus fetches the server's federation status document (JSON).
func (c *Client) DomainStatus(ctx context.Context) (string, error) {
	return c.text(ctx, &Message{Op: OpStats, Entry: "federation"})
}
