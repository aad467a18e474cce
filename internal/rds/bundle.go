package rds

import (
	"context"
	"crypto/sha256"
	"encoding/hex"

	"mbd/internal/ber"
)

// This file carries the fleet-distribution side of the peer protocol:
// golden DP bundles (a versioned, content-addressed set of compiled
// programs plus instantiation specs, published once and fetched by
// hash), the per-member staging outcomes, and the batched child→parent
// sync frame that coalesces a heartbeat with pending rollup deltas.

// BundleItem is one program in a golden bundle: the repository name it
// installs under, the program itself, and an optional entry point to
// instantiate when the bundle is activated.
type BundleItem struct {
	// DP is the repository name the program installs under.
	DP string
	// Lang distinguishes the blob: LangCompiled for an encoded
	// dpl.CompiledProgram (the golden form), "dpl" for source that the
	// domain root compiles into the golden form at publish time.
	Lang string
	// Blob is the program bytes per Lang.
	Blob []byte
	// Entry, when non-empty, is instantiated as entry(Args...) at every
	// member when the bundle becomes active.
	Entry string
	// Args are Entry's wire-form arguments (see ParseArg).
	Args []string
}

// Bundle is a golden DP bundle: a named lineage's versioned set of
// programs. The canonical (all-compiled) encoding is the unit of
// content addressing — members stage and activate it by sha256.
type Bundle struct {
	// Lineage names the upgradeable unit ("probe-suite"); a domain
	// tracks one active version per lineage.
	Lineage string
	// Version is the publisher's monotonic version stamp, carried for
	// operators; identity is the hash, not the version.
	Version uint64
	Items   []BundleItem
}

// maxBundleItems bounds decoded bundles defensively.
const maxBundleItems = 4096

// HashBundle content-addresses a canonical bundle encoding.
func HashBundle(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// AppendEncode serializes b with BER appended to dst.
func (b *Bundle) AppendEncode(dst []byte) []byte { return encode(dst, b, (*Bundle).visit) }

// Encode serializes b with BER.
func (b *Bundle) Encode() []byte { return b.AppendEncode(nil) }

// DecodeBundle parses a BER-encoded Bundle.
func DecodeBundle(raw []byte) (*Bundle, error) {
	return decode(raw, &Bundle{}, (*Bundle).visit)
}

// visit runs b's wire format through c.
func (b *Bundle) visit(c *ber.Codec) {
	root := c.Begin(ber.TagSequence)
	c.String(ber.TagOctetString, &b.Lineage)
	c.Uint(ber.TagCounter64, &b.Version)
	for i := range ber.List(c, ber.TagSequence, &b.Items, maxBundleItems) {
		it := &b.Items[i]
		one := c.Begin(ber.TagSequence)
		c.String(ber.TagOctetString, &it.DP)
		c.String(ber.TagOctetString, &it.Lang)
		c.Octets(ber.TagOctetString, &it.Blob)
		c.String(ber.TagOctetString, &it.Entry)
		for j := range ber.List(c, ber.TagSequence, &it.Args, maxArgs) {
			c.String(ber.TagOctetString, &it.Args[j])
		}
		c.End(one)
	}
	c.End(root)
}

// StageOutcome is one member's result for a bundle stage: whether the
// hash is now held, whether it was already held before this request,
// and how many artifact bytes actually travelled to reach that state
// (0 when the content-addressed probe hit).
type StageOutcome struct {
	Member string
	Domain string
	Addr   string
	OK     bool
	// AlreadyStaged reports a delta-push hit: the member held the hash
	// before this stage request.
	AlreadyStaged bool
	// ArtifactBytes counts bundle payload bytes transferred to this
	// member by this request; a probe hit transfers none.
	ArtifactBytes uint64
	Err           string
}

// StageResult collects a subtree's staging outcomes for one bundle.
type StageResult struct {
	Lineage string
	// Hash is the canonical bundle hash — for a source-form publish the
	// root compiles first, so the caller learns the golden hash here.
	Hash     string
	Outcomes []StageOutcome
}

// Staged counts members now holding the hash.
func (r *StageResult) Staged() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.OK {
			n++
		}
	}
	return n
}

// TransferredBytes totals the artifact bytes moved by this stage; an
// unchanged re-publish of a bundle totals zero.
func (r *StageResult) TransferredBytes() uint64 {
	var n uint64
	for _, o := range r.Outcomes {
		n += o.ArtifactBytes
	}
	return n
}

// AppendEncode serializes r with BER appended to dst.
func (r *StageResult) AppendEncode(dst []byte) []byte { return encode(dst, r, (*StageResult).visit) }

// Encode serializes r with BER.
func (r *StageResult) Encode() []byte { return r.AppendEncode(nil) }

// DecodeStageResult parses a BER-encoded StageResult.
func DecodeStageResult(b []byte) (*StageResult, error) {
	return decode(b, &StageResult{}, (*StageResult).visit)
}

// visit runs r's wire format through c. OK and AlreadyStaged travel
// as bits 1 and 2 of one INTEGER.
func (r *StageResult) visit(c *ber.Codec) {
	root := c.Begin(ber.TagSequence)
	c.String(ber.TagOctetString, &r.Lineage)
	c.String(ber.TagOctetString, &r.Hash)
	for i := range ber.List(c, ber.TagSequence, &r.Outcomes, maxOutcomes) {
		o := &r.Outcomes[i]
		one := c.Begin(ber.TagSequence)
		c.String(ber.TagOctetString, &o.Member)
		c.String(ber.TagOctetString, &o.Domain)
		c.String(ber.TagOctetString, &o.Addr)
		flags := int64(0)
		if o.OK {
			flags |= 1
		}
		if o.AlreadyStaged {
			flags |= 2
		}
		ber.Int(c, &flags)
		if c.Decoding() {
			o.OK, o.AlreadyStaged = flags&1 != 0, flags&2 != 0
		}
		c.Uint(ber.TagCounter64, &o.ArtifactBytes)
		c.String(ber.TagOctetString, &o.Err)
		c.End(one)
	}
	c.End(root)
}

// SyncReport is one pending rollup delta inside a SyncBatch.
type SyncReport struct {
	Key    string
	Value  string
	TimeMS int64
}

// BundleStatus is one lineage's state as reported by a member in its
// sync frame (and tracked by its parent).
type BundleStatus struct {
	Lineage string `json:"lineage"`
	// Hash is the active bundle hash, empty when staged but never
	// activated.
	Hash string `json:"hash,omitempty"`
	// Version is the active bundle's publisher version stamp.
	Version uint64 `json:"version"`
	// Staged counts bundle versions the member holds for this lineage.
	Staged uint64 `json:"staged"`
}

// SyncBatch is the payload of one OpPeerSync frame: every pending
// rollup delta plus the member's bundle statuses. An empty batch is a
// bare heartbeat.
type SyncBatch struct {
	Reports []SyncReport
	Bundles []BundleStatus
}

// maxSyncReports bounds decoded sync batches defensively (also the
// per-frame coalescing limit — a deeper backlog rides the next frame).
const maxSyncReports = 4096

// AppendEncode serializes b with BER appended to dst.
func (b *SyncBatch) AppendEncode(dst []byte) []byte { return encode(dst, b, (*SyncBatch).visit) }

// Encode serializes b with BER.
func (b *SyncBatch) Encode() []byte { return b.AppendEncode(nil) }

// DecodeSyncBatch parses a BER-encoded SyncBatch.
func DecodeSyncBatch(raw []byte) (*SyncBatch, error) {
	return decode(raw, &SyncBatch{}, (*SyncBatch).visit)
}

// visit runs b's wire format through c.
func (b *SyncBatch) visit(c *ber.Codec) {
	root := c.Begin(ber.TagSequence)
	for i := range ber.List(c, ber.TagSequence, &b.Reports, maxSyncReports) {
		r := &b.Reports[i]
		one := c.Begin(ber.TagSequence)
		c.String(ber.TagOctetString, &r.Key)
		c.String(ber.TagOctetString, &r.Value)
		ber.Int(c, &r.TimeMS)
		c.End(one)
	}
	for i := range ber.List(c, ber.TagSequence, &b.Bundles, maxSyncReports) {
		st := &b.Bundles[i]
		one := c.Begin(ber.TagSequence)
		c.String(ber.TagOctetString, &st.Lineage)
		c.String(ber.TagOctetString, &st.Hash)
		c.Uint(ber.TagCounter64, &st.Version)
		c.Uint(ber.TagCounter64, &st.Staged)
		c.End(one)
	}
	c.End(root)
}

// PeerSync delivers one batched sync frame: the member's heartbeat,
// its pending rollup deltas, and its bundle statuses — replacing one
// heartbeat plus N report round trips.
func (c *Client) PeerSync(ctx context.Context, member string, batch *SyncBatch) error {
	_, err := c.call(ctx, &Message{Op: OpPeerSync, Name: member, Payload: batch.Encode()})
	return err
}

// PeerBundleStage stages bundle (its canonical encoding) under hash
// across the server's subtree. An empty bundle payload probes: a
// member already holding hash stages nothing and transfers zero
// artifact bytes; a miss answers with an unknown-bundle error so the
// caller re-sends the payload. A source-form bundle may be sent with
// hash "" — the root compiles it to the golden form and returns the
// canonical hash in the result.
func (c *Client) PeerBundleStage(ctx context.Context, lineage, hash string, bundle []byte) (*StageResult, error) {
	m, err := c.call(ctx, &Message{Op: OpPeerBundleStage, Name: lineage, Entry: hash, Payload: bundle})
	if err != nil {
		return nil, err
	}
	return DecodeStageResult(m.Payload)
}

// PeerBundleActivate flips lineage's active-version pointer to an
// already-staged hash across the server's subtree: each member starts
// the new version's instances, terminates the previous version's, and
// records the flip. Activating an older staged hash is the rollback.
func (c *Client) PeerBundleActivate(ctx context.Context, lineage, hash string) (*FanoutResult, error) {
	m, err := c.call(ctx, &Message{Op: OpPeerBundleActivate, Name: lineage, Entry: hash})
	if err != nil {
		return nil, err
	}
	return DecodeFanoutResult(m.Payload)
}
