package rds

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

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
func (b *Bundle) AppendEncode(dst []byte) []byte {
	w := ber.NewWriter(dst)
	root := w.BeginSeq(ber.TagSequence)
	w.AppendString(ber.TagOctetString, []byte(b.Lineage))
	w.AppendUint(ber.TagCounter64, b.Version)
	items := w.BeginSeq(ber.TagSequence)
	for _, it := range b.Items {
		one := w.BeginSeq(ber.TagSequence)
		w.AppendString(ber.TagOctetString, []byte(it.DP))
		w.AppendString(ber.TagOctetString, []byte(it.Lang))
		w.AppendString(ber.TagOctetString, it.Blob)
		w.AppendString(ber.TagOctetString, []byte(it.Entry))
		args := w.BeginSeq(ber.TagSequence)
		for _, a := range it.Args {
			w.AppendString(ber.TagOctetString, []byte(a))
		}
		w.EndSeq(args)
		w.EndSeq(one)
	}
	w.EndSeq(items)
	w.EndSeq(root)
	return w.Bytes()
}

// Encode serializes b with BER.
func (b *Bundle) Encode() []byte { return b.AppendEncode(nil) }

// DecodeBundle parses a BER-encoded Bundle.
func DecodeBundle(raw []byte) (*Bundle, error) {
	r, err := ber.NewReader(raw).EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, fmt.Errorf("rds: bad bundle envelope: %w", err)
	}
	out := &Bundle{}
	_, lineage, err := r.ReadString()
	if err != nil {
		return nil, err
	}
	out.Lineage = string(lineage)
	_, out.Version, err = r.ReadUint()
	if err != nil {
		return nil, err
	}
	ir, err := r.EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, err
	}
	for !ir.Empty() {
		if len(out.Items) >= maxBundleItems {
			return nil, errors.New("rds: too many bundle items")
		}
		one, err := ir.EnterSeq(ber.TagSequence)
		if err != nil {
			return nil, err
		}
		var it BundleItem
		for _, f := range []*string{&it.DP, &it.Lang} {
			_, s, err := one.ReadString()
			if err != nil {
				return nil, err
			}
			*f = string(s)
		}
		_, blob, err := one.ReadString()
		if err != nil {
			return nil, err
		}
		if len(blob) > 0 {
			it.Blob = append([]byte(nil), blob...)
		}
		_, entry, err := one.ReadString()
		if err != nil {
			return nil, err
		}
		it.Entry = string(entry)
		ar, err := one.EnterSeq(ber.TagSequence)
		if err != nil {
			return nil, err
		}
		for !ar.Empty() {
			if len(it.Args) >= maxArgs {
				return nil, errors.New("rds: too many bundle item arguments")
			}
			_, s, err := ar.ReadString()
			if err != nil {
				return nil, err
			}
			it.Args = append(it.Args, string(s))
		}
		out.Items = append(out.Items, it)
	}
	return out, nil
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
func (r *StageResult) AppendEncode(dst []byte) []byte {
	w := ber.NewWriter(dst)
	root := w.BeginSeq(ber.TagSequence)
	w.AppendString(ber.TagOctetString, []byte(r.Lineage))
	w.AppendString(ber.TagOctetString, []byte(r.Hash))
	outs := w.BeginSeq(ber.TagSequence)
	for _, o := range r.Outcomes {
		one := w.BeginSeq(ber.TagSequence)
		w.AppendString(ber.TagOctetString, []byte(o.Member))
		w.AppendString(ber.TagOctetString, []byte(o.Domain))
		w.AppendString(ber.TagOctetString, []byte(o.Addr))
		flags := int64(0)
		if o.OK {
			flags |= 1
		}
		if o.AlreadyStaged {
			flags |= 2
		}
		w.AppendInt(ber.TagInteger, flags)
		w.AppendUint(ber.TagCounter64, o.ArtifactBytes)
		w.AppendString(ber.TagOctetString, []byte(o.Err))
		w.EndSeq(one)
	}
	w.EndSeq(outs)
	w.EndSeq(root)
	return w.Bytes()
}

// Encode serializes r with BER.
func (r *StageResult) Encode() []byte { return r.AppendEncode(nil) }

// DecodeStageResult parses a BER-encoded StageResult.
func DecodeStageResult(b []byte) (*StageResult, error) {
	r, err := ber.NewReader(b).EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, fmt.Errorf("rds: bad stage-result envelope: %w", err)
	}
	out := &StageResult{}
	for _, f := range []*string{&out.Lineage, &out.Hash} {
		_, s, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		*f = string(s)
	}
	or, err := r.EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, err
	}
	for !or.Empty() {
		if len(out.Outcomes) >= maxOutcomes {
			return nil, errors.New("rds: too many stage outcomes")
		}
		one, err := or.EnterSeq(ber.TagSequence)
		if err != nil {
			return nil, err
		}
		var o StageOutcome
		for _, f := range []*string{&o.Member, &o.Domain, &o.Addr} {
			_, s, err := one.ReadString()
			if err != nil {
				return nil, err
			}
			*f = string(s)
		}
		_, flags, err := one.ReadInt()
		if err != nil {
			return nil, err
		}
		o.OK = flags&1 != 0
		o.AlreadyStaged = flags&2 != 0
		_, o.ArtifactBytes, err = one.ReadUint()
		if err != nil {
			return nil, err
		}
		_, errStr, err := one.ReadString()
		if err != nil {
			return nil, err
		}
		o.Err = string(errStr)
		out.Outcomes = append(out.Outcomes, o)
	}
	return out, nil
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
func (b *SyncBatch) AppendEncode(dst []byte) []byte {
	w := ber.NewWriter(dst)
	root := w.BeginSeq(ber.TagSequence)
	reps := w.BeginSeq(ber.TagSequence)
	for _, r := range b.Reports {
		one := w.BeginSeq(ber.TagSequence)
		w.AppendString(ber.TagOctetString, []byte(r.Key))
		w.AppendString(ber.TagOctetString, []byte(r.Value))
		w.AppendInt(ber.TagInteger, r.TimeMS)
		w.EndSeq(one)
	}
	w.EndSeq(reps)
	bnds := w.BeginSeq(ber.TagSequence)
	for _, s := range b.Bundles {
		one := w.BeginSeq(ber.TagSequence)
		w.AppendString(ber.TagOctetString, []byte(s.Lineage))
		w.AppendString(ber.TagOctetString, []byte(s.Hash))
		w.AppendUint(ber.TagCounter64, s.Version)
		w.AppendUint(ber.TagCounter64, s.Staged)
		w.EndSeq(one)
	}
	w.EndSeq(bnds)
	w.EndSeq(root)
	return w.Bytes()
}

// Encode serializes b with BER.
func (b *SyncBatch) Encode() []byte { return b.AppendEncode(nil) }

// DecodeSyncBatch parses a BER-encoded SyncBatch.
func DecodeSyncBatch(raw []byte) (*SyncBatch, error) {
	r, err := ber.NewReader(raw).EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, fmt.Errorf("rds: bad sync envelope: %w", err)
	}
	out := &SyncBatch{}
	rr, err := r.EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, err
	}
	for !rr.Empty() {
		if len(out.Reports) >= maxSyncReports {
			return nil, errors.New("rds: too many sync reports")
		}
		one, err := rr.EnterSeq(ber.TagSequence)
		if err != nil {
			return nil, err
		}
		var rep SyncReport
		for _, f := range []*string{&rep.Key, &rep.Value} {
			_, s, err := one.ReadString()
			if err != nil {
				return nil, err
			}
			*f = string(s)
		}
		_, rep.TimeMS, err = one.ReadInt()
		if err != nil {
			return nil, err
		}
		out.Reports = append(out.Reports, rep)
	}
	br, err := r.EnterSeq(ber.TagSequence)
	if err != nil {
		return nil, err
	}
	for !br.Empty() {
		if len(out.Bundles) >= maxSyncReports {
			return nil, errors.New("rds: too many bundle statuses")
		}
		one, err := br.EnterSeq(ber.TagSequence)
		if err != nil {
			return nil, err
		}
		var st BundleStatus
		for _, f := range []*string{&st.Lineage, &st.Hash} {
			_, s, err := one.ReadString()
			if err != nil {
				return nil, err
			}
			*f = string(s)
		}
		_, st.Version, err = one.ReadUint()
		if err != nil {
			return nil, err
		}
		_, st.Staged, err = one.ReadUint()
		if err != nil {
			return nil, err
		}
		out.Bundles = append(out.Bundles, st)
	}
	return out, nil
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
