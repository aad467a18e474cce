// Package federation organizes MbD servers into named management
// domains with a parent/child topology — the paper's hierarchy of
// managers applied to the servers themselves. A child registers with
// its parent over RDS and heartbeats; the parent's failure detector
// moves silent members through alive → suspect → dead. Delegating a
// program to a domain root cascades it down the tree (each hop passing
// the local static-analysis admission gate), and member-emitted reports
// roll up the tree through pluggable combiners, published both as RDS
// events and as a walkable MIB subtree (see fedmib.go).
//
// Rollup semantics are latest-per-member: each member owns exactly one
// slot per key, so a member that crashes and re-joins replaces its old
// contribution instead of double-counting, and a member declared dead
// has its contributions dropped so the combined value converges back to
// the live membership. Every node — leaf, intermediate, root — applies
// its own local DPI reports to its own rollup (itself as a member) and
// forwards only rollup-change events upstream, which makes cascading
// uniform: an intermediate's parent sees one contribution per child
// subtree, already combined.
package federation

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/elastic"
	"mbd/internal/obs"
	"mbd/internal/rds"
)

// MemberState is a registered member's liveness as judged by the
// failure detector.
type MemberState int

// Member liveness states.
const (
	// MemberAlive members heartbeat within SuspectAfter.
	MemberAlive MemberState = iota
	// MemberSuspect members missed heartbeats for SuspectAfter but are
	// still counted in the rollup and still receive cascades.
	MemberSuspect
	// MemberDead members missed heartbeats for DeadAfter: their rollup
	// contributions are dropped and cascades skip them. A dead member
	// revives only by re-joining.
	MemberDead
)

// String renders the state for status documents and the MIB.
func (s MemberState) String() string {
	switch s {
	case MemberAlive:
		return "alive"
	case MemberSuspect:
		return "suspect"
	case MemberDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ErrUnknownMember answers a heartbeat or report from a member this
// node does not know — after a root restart, or after the member was
// declared dead. The child reacts by re-joining (see child.go), which
// makes membership survive either side restarting.
var ErrUnknownMember = errors.New("federation: unknown member")

// isUnknownMember matches ErrUnknownMember across the wire, where the
// error arrives as rendered text.
func isUnknownMember(err error) bool {
	return err != nil &&
		(errors.Is(err, ErrUnknownMember) || strings.Contains(err.Error(), "unknown member"))
}

// Config parameterizes a Node. Name, Domain and Proc are required.
type Config struct {
	// Name is this server's member name, unique within its parent's
	// domain.
	Name string
	// Domain is the management domain this node roots.
	Domain string
	// Proc is the node's elastic process: the admission gate and
	// instantiation target for cascaded delegations, and the event
	// source for rollup contributions.
	Proc *elastic.Process
	// Parent is the parent node's RDS address; empty marks the top
	// root.
	Parent string
	// Advertise is the RDS address members and the parent use to reach
	// this node (required to receive cascaded delegations).
	Advertise string
	// Principal authenticates federation traffic (default "federation").
	Principal string
	// Auth, when set, signs and verifies peer requests.
	Auth *rds.Authenticator
	// Combiner is the default rollup combiner (default Latest; see
	// Sum, Max).
	Combiner Combiner
	// HeartbeatInterval paces child heartbeats and the failure-detector
	// sweep (default 1s).
	HeartbeatInterval time.Duration
	// SuspectAfter without a heartbeat marks a member suspect (default
	// 3×HeartbeatInterval).
	SuspectAfter time.Duration
	// DeadAfter without a heartbeat marks a member dead (default
	// 8×HeartbeatInterval).
	DeadAfter time.Duration
	// DialTimeout bounds each dial to a parent or member (default 5s).
	DialTimeout time.Duration
	// Dialer overrides how peers are reached — a test seam (default
	// TCP with DialTimeout).
	Dialer func(addr string) (net.Conn, error)
	// Obs receives federation_* metrics (default a private registry).
	Obs *obs.Registry
	// Tracer records join/fanout/rollup/member-dead spans (nil is
	// valid).
	Tracer *obs.Tracer
}

// member is one registered child in this node's domain.
type member struct {
	name     string
	domain   string
	addr     string
	state    MemberState
	joined   time.Time
	lastSeen time.Time
	reports  uint64
	rejoins  uint64
	// bundles is the member's last-reported lineage inventory, carried
	// by its sync frames.
	bundles []rds.BundleStatus
}

// localReport is one local DPI report queued for rollup application.
type localReport struct {
	key    string
	value  string
	timeMS int64
}

// applyQueueLen bounds the local-report apply queue; the subscriber
// callback must never block the emitting DPI goroutine.
const applyQueueLen = 1024

// nodeMetrics groups the federation_* instruments.
type nodeMetrics struct {
	joins          *obs.Counter
	heartbeats     *obs.Counter
	reports        *obs.Counter
	fanouts        *obs.Counter
	fanoutAccepted *obs.Counter
	fanoutRejected *obs.Counter
	rollupUpdates  *obs.Counter
	suspects       *obs.Counter
	deaths         *obs.Counter
	applyDrops     *obs.Counter
	bytecodeShips  *obs.Counter

	syncFrames        *obs.Counter
	syncReports       *obs.Counter
	bundleStages      *obs.Counter
	bundleStageBytes  *obs.Counter
	bundleActivations *obs.Counter
}

// Node is one server's seat in the federation: the root of domain
// Config.Domain (tracking members, cascading delegations, rolling up
// reports) and, when Config.Parent is set, simultaneously a child of
// the domain above. It implements rds.PeerHandler; install it on the
// server with rds.WithPeerHandler.
type Node struct {
	cfg    Config
	rollup *Rollup
	tracer *obs.Tracer
	met    nodeMetrics

	mu      sync.Mutex
	members map[string]*member

	bundles bundleStore

	applyCh chan localReport
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	unsub   func()
	child   *childLink
	started bool
}

// New validates cfg, applies defaults, and returns a stopped node.
// Call Start to begin heartbeating, failure detection, and report
// forwarding.
func New(cfg Config) (*Node, error) {
	if cfg.Name == "" {
		return nil, errors.New("federation: Config.Name is required")
	}
	if cfg.Domain == "" {
		return nil, errors.New("federation: Config.Domain is required")
	}
	if cfg.Proc == nil {
		return nil, errors.New("federation: Config.Proc is required")
	}
	if cfg.Principal == "" {
		cfg.Principal = "federation"
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3 * cfg.HeartbeatInterval
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 8 * cfg.HeartbeatInterval
	}
	if cfg.DeadAfter < cfg.SuspectAfter {
		cfg.DeadAfter = cfg.SuspectAfter
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.Dialer == nil {
		to := cfg.DialTimeout
		cfg.Dialer = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, to)
		}
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	n := &Node{
		cfg:     cfg,
		rollup:  NewRollup(cfg.Combiner),
		tracer:  cfg.Tracer,
		members: make(map[string]*member),
		applyCh: make(chan localReport, applyQueueLen),
	}
	reg := cfg.Obs
	n.met = nodeMetrics{
		joins:          reg.Counter("federation_joins_total", "member join (and re-join) registrations accepted"),
		heartbeats:     reg.Counter("federation_heartbeats_total", "member heartbeats accepted"),
		reports:        reg.Counter("federation_reports_total", "member reports merged into the rollup"),
		fanouts:        reg.Counter("federation_fanouts_total", "cascaded delegations fanned out from this node"),
		fanoutAccepted: reg.LabeledCounter("federation_fanout_outcomes_total", "cascaded delegation outcomes by result", "outcome", "accepted"),
		fanoutRejected: reg.LabeledCounter("federation_fanout_outcomes_total", "cascaded delegation outcomes by result", "outcome", "rejected"),
		rollupUpdates:  reg.Counter("federation_rollup_updates_total", "rollup keys whose combined value changed"),
		suspects:       reg.Counter("federation_member_suspects_total", "members marked suspect by the failure detector"),
		deaths:         reg.Counter("federation_member_deaths_total", "members declared dead by the failure detector"),
		applyDrops:     reg.Counter("federation_apply_drops_total", "local reports dropped on apply-queue overflow"),
		bytecodeShips:  reg.Counter("federation_bytecode_ships_total", "cascaded delegations forwarded as verified bytecode instead of source"),

		syncFrames:        reg.Counter("federation_sync_frames_total", "batched child sync frames accepted"),
		syncReports:       reg.Counter("federation_sync_reports_total", "rollup deltas carried by sync frames"),
		bundleStages:      reg.Counter("federation_bundle_stages_total", "golden bundle stage requests served (probes included)"),
		bundleStageBytes:  reg.Counter("federation_bundle_stage_bytes_total", "bundle artifact bytes received by stage requests"),
		bundleActivations: reg.Counter("federation_bundle_activations_total", "bundle version flips performed locally"),
	}
	reg.FuncGauge("federation_members_alive", "members currently alive", n.stateGauge(MemberAlive))
	reg.FuncGauge("federation_members_suspect", "members currently suspect", n.stateGauge(MemberSuspect))
	reg.FuncGauge("federation_members_dead", "members currently dead", n.stateGauge(MemberDead))
	return n, nil
}

func (n *Node) stateGauge(s MemberState) func() int64 {
	return func() int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		c := int64(0)
		for _, m := range n.members {
			if m.state == s {
				c++
			}
		}
		return c
	}
}

// Rollup exposes the node's aggregation point (the federation MIB
// tables and views read it).
func (n *Node) Rollup() *Rollup { return n.rollup }

// Name returns this node's member name.
func (n *Node) Name() string { return n.cfg.Name }

// Start launches the background machinery: the apply queue drain, the
// failure-detector sweep, the process-event subscription, and — when a
// parent is configured — the child link that joins, heartbeats, and
// forwards rollup changes upstream.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.ctx, n.cancel = context.WithCancel(context.Background())
	n.mu.Unlock()

	n.unsub = n.cfg.Proc.Subscribe(n.onEvent)
	n.wg.Add(2)
	go n.applyLoop()
	go n.detectLoop()
	if n.cfg.Parent != "" {
		n.child = newChildLink(n)
		n.wg.Add(1)
		go n.child.run(n.ctx)
	}
}

// Stop cancels the background machinery and waits for it to exit.
func (n *Node) Stop() {
	n.mu.Lock()
	if !n.started {
		n.mu.Unlock()
		return
	}
	n.started = false
	cancel := n.cancel
	n.mu.Unlock()
	if n.unsub != nil {
		n.unsub()
	}
	cancel()
	n.wg.Wait()
}

// rollupPrefix marks synthesized rollup events; the event source is
// rollupPrefix + domain, so subscribers can tell combined values from
// raw DPI reports, and the node itself never re-applies its own
// synthesis.
const rollupPrefix = "federation/"

// dpiBase maps an instance id to its rollup key: the DP name, with the
// "#n" instance suffix stripped so restarted instances keep one slot.
func dpiBase(dpi string) string {
	if i := strings.IndexByte(dpi, '#'); i >= 0 {
		return dpi[:i]
	}
	return dpi
}

// onEvent routes local process events: raw DPI reports queue for rollup
// application (as this node's own contribution); synthesized rollup
// events are the child link's to forward and are skipped here.
func (n *Node) onEvent(ev elastic.Event) {
	if ev.Kind != elastic.EventReport || strings.HasPrefix(ev.DPI, rollupPrefix) {
		return
	}
	select {
	case n.applyCh <- localReport{key: dpiBase(ev.DPI), value: ev.Payload, timeMS: time.Now().UnixMilli()}:
	default:
		n.met.applyDrops.Inc()
	}
}

// applyLoop drains local reports into the rollup off the emitting
// goroutine.
func (n *Node) applyLoop() {
	defer n.wg.Done()
	for {
		select {
		case r := <-n.applyCh:
			n.applyReport(n.cfg.Name, r.key, r.value, r.timeMS)
		case <-n.ctx.Done():
			return
		}
	}
}

// applyReport merges one contribution and publishes the combined value
// when it changed — as a process event (visible to RDS subscribers and,
// via the child link, to the parent).
func (n *Node) applyReport(member, key, value string, timeMS int64) {
	combined, changed := n.rollup.Report(member, key, value, timeMS)
	if !changed {
		return
	}
	n.met.rollupUpdates.Inc()
	n.tracer.Record(n.cfg.Domain, obs.StageRollup,
		fmt.Sprintf("%s=%s (from %s)", key, combined, member), 0)
	n.cfg.Proc.Publish(rollupPrefix+n.cfg.Domain, elastic.EventReport, key+"="+combined)
}

// detectLoop is the failure detector: a jittered sweep at the heartbeat
// interval moving silent members alive → suspect → dead and dropping a
// dead member's rollup contributions.
func (n *Node) detectLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-time.After(elastic.Backoff(n.cfg.HeartbeatInterval, n.cfg.HeartbeatInterval, 1)):
		case <-n.ctx.Done():
			return
		}
		n.sweep(time.Now())
	}
}

// sweep applies the state transitions due at now.
func (n *Node) sweep(now time.Time) {
	var dead []string
	n.mu.Lock()
	for _, m := range n.members {
		silent := now.Sub(m.lastSeen)
		switch {
		case m.state == MemberAlive && silent > n.cfg.SuspectAfter:
			m.state = MemberSuspect
			n.met.suspects.Inc()
		case m.state == MemberSuspect && silent > n.cfg.DeadAfter:
			m.state = MemberDead
			n.met.deaths.Inc()
			dead = append(dead, m.name)
		}
	}
	n.mu.Unlock()
	for _, name := range dead {
		n.tracer.Record(name, obs.StageMemberDead,
			fmt.Sprintf("domain=%s silent>%s", n.cfg.Domain, n.cfg.DeadAfter), 0)
		for _, up := range n.rollup.DropMember(name) {
			if up.Removed {
				continue
			}
			n.met.rollupUpdates.Inc()
			n.cfg.Proc.Publish(rollupPrefix+n.cfg.Domain, elastic.EventReport, up.Key+"="+up.Value)
		}
	}
}

// PeerJoin implements rds.PeerHandler: register (or revive) a member.
func (n *Node) PeerJoin(principal, memberName, domain, addr string) error {
	if memberName == "" {
		return errors.New("federation: empty member name")
	}
	if memberName == n.cfg.Name {
		return fmt.Errorf("federation: member name %q collides with this node", memberName)
	}
	now := time.Now()
	n.mu.Lock()
	m, ok := n.members[memberName]
	if !ok {
		m = &member{name: memberName, joined: now}
		n.members[memberName] = m
	} else if m.state == MemberDead {
		m.rejoins++
	}
	m.domain = domain
	m.addr = addr
	m.state = MemberAlive
	m.lastSeen = now
	n.mu.Unlock()
	n.met.joins.Inc()
	n.tracer.Record(memberName, obs.StageJoin,
		fmt.Sprintf("domain=%s addr=%s principal=%s", domain, addr, principal), 0)
	return nil
}

// PeerSync implements rds.PeerHandler: apply one batched child frame —
// heartbeat liveness, every carried rollup delta, and the member's
// bundle inventory — in a single round trip. Unknown members are
// refused so the child re-joins before re-sending.
func (n *Node) PeerSync(principal, memberName string, batch *rds.SyncBatch) error {
	n.mu.Lock()
	m, ok := n.members[memberName]
	dead := ok && m.state == MemberDead
	if ok && !dead {
		m.lastSeen = time.Now()
		m.state = MemberAlive
		m.reports += uint64(len(batch.Reports))
		if len(batch.Bundles) > 0 || m.bundles != nil {
			m.bundles = batch.Bundles
		}
	}
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownMember, memberName)
	}
	if dead {
		return fmt.Errorf("%w: %s (declared dead; re-join)", ErrUnknownMember, memberName)
	}
	n.met.heartbeats.Inc()
	n.met.syncFrames.Inc()
	n.met.syncReports.Add(uint64(len(batch.Reports)))
	n.met.reports.Add(uint64(len(batch.Reports)))
	for _, r := range batch.Reports {
		n.applyReport(memberName, r.Key, r.Value, r.TimeMS)
	}
	return nil
}

// PeerDelegate implements rds.PeerHandler: cascade one delegation
// through this node and its subtree.
func (n *Node) PeerDelegate(ctx context.Context, principal, dp, lang, source, entry string, args []string) (*rds.FanoutResult, error) {
	return n.Fanout(ctx, principal, dp, lang, source, entry, args), nil
}

// Fanout admits the program locally (instantiating entry(args...) when
// entry is non-empty), then cascades it concurrently to every member
// not declared dead, merging the per-member outcomes. Transport
// failures and admission rejections both surface as rejected outcomes —
// the caller always learns every hop's fate.
func (n *Node) Fanout(ctx context.Context, principal, dp, lang, source, entry string, args []string) *rds.FanoutResult {
	start := time.Now()
	n.met.fanouts.Inc()
	res := &rds.FanoutResult{DP: dp}
	res.Outcomes = append(res.Outcomes, n.localHop(principal, dp, lang, source, entry, args))

	// Cascade verified bytecode whenever it is available: a compiled
	// artifact is forwarded verbatim, and a source delegation that this
	// hop just analyzed ships its compiled artifact instead of making
	// every descendant repeat the source-level analysis. Children then
	// admit through the bytecode verifier alone.
	shipLang, shipPayload := lang, source
	if lang != rds.LangCompiled {
		if rec, ok := n.cfg.Proc.Repository().Lookup(dp); ok &&
			rec.Program != nil && rec.Program.SourceHash == dpl.HashSource(source) {
			if blob, err := rec.Program.Encode(); err == nil {
				shipLang, shipPayload = rds.LangCompiled, string(blob)
			}
		}
	}

	for _, outs := range fanBundle(n,
		func(client *rds.Client, _ peerTarget) ([]rds.FanoutOutcome, error) {
			var sub *rds.FanoutResult
			var err error
			if shipLang == rds.LangCompiled {
				n.met.bytecodeShips.Inc()
				sub, err = client.PeerDelegateCompiled(ctx, dp, []byte(shipPayload), entry, args...)
			} else {
				sub, err = client.PeerDelegate(ctx, dp, shipPayload, entry, args...)
			}
			if err != nil {
				return nil, err
			}
			return sub.Outcomes, nil
		}, transportFailed) {
		res.Outcomes = append(res.Outcomes, outs...)
	}
	for _, o := range res.Outcomes {
		if o.OK {
			n.met.fanoutAccepted.Inc()
		} else {
			n.met.fanoutRejected.Inc()
		}
	}
	n.tracer.Record(dp, obs.StageFanout,
		fmt.Sprintf("domain=%s accepted=%d rejected=%d", n.cfg.Domain, res.Accepted(), res.Rejected()),
		time.Since(start))
	return res
}

// localHop runs the delegation against this node's own elastic process:
// the source translator for source delegations, the bytecode verifier
// for compiled artifacts.
func (n *Node) localHop(principal, dp, lang, source, entry string, args []string) rds.FanoutOutcome {
	out := rds.FanoutOutcome{Member: n.cfg.Name, Domain: n.cfg.Domain, Addr: "local"}
	var err error
	if lang == rds.LangCompiled {
		err = n.cfg.Proc.DelegateCompiled(principal, dp, []byte(source))
	} else {
		err = n.cfg.Proc.Delegate(principal, dp, lang, source)
	}
	if err != nil {
		out.Err = err.Error()
		return out
	}
	if entry != "" {
		vals := make([]any, 0, len(args))
		for _, a := range args {
			vals = append(vals, rds.ParseArg(a))
		}
		inst, err := n.cfg.Proc.Instantiate(principal, dp, entry, vals...)
		if err != nil {
			out.Err = err.Error()
			return out
		}
		out.DPI = inst.ID
	}
	out.OK = true
	return out
}

// dialPeer opens a one-shot client to a peer address.
func (n *Node) dialPeer(addr string) (*rds.Client, error) {
	conn, err := n.cfg.Dialer(addr)
	if err != nil {
		return nil, err
	}
	opts := []rds.ClientOption{rds.WithDialTimeout(n.cfg.DialTimeout)}
	if n.cfg.Auth != nil {
		opts = append(opts, rds.WithAuth(n.cfg.Auth))
	}
	return rds.NewClient(conn, n.cfg.Principal, opts...), nil
}

// Status is the domain status document served by OpStats "federation"
// and consumed by mbdctl domain.
type Status struct {
	Name      string         `json:"name"`
	Domain    string         `json:"domain"`
	Parent    string         `json:"parent,omitempty"`
	Advertise string         `json:"advertise,omitempty"`
	Members   []MemberStatus `json:"members"`
	Rollup    []RollupStatus `json:"rollup"`
	// Bundles is this node's own lineage inventory (active hash +
	// staged version count per lineage).
	Bundles []rds.BundleStatus `json:"bundles,omitempty"`
}

// MemberStatus is one member's row in a Status document.
type MemberStatus struct {
	Name        string `json:"name"`
	Domain      string `json:"domain"`
	Addr        string `json:"addr"`
	State       string `json:"state"`
	AgeMS       int64  `json:"age_ms"`
	SinceSeenMS int64  `json:"since_seen_ms"`
	Reports     uint64 `json:"reports"`
	Rejoins     uint64 `json:"rejoins"`
	// Bundles is the member's last-reported lineage inventory.
	Bundles []rds.BundleStatus `json:"bundles,omitempty"`
}

// RollupStatus is one rollup key's row in a Status document.
type RollupStatus struct {
	Key          string `json:"key"`
	Value        string `json:"value"`
	Combiner     string `json:"combiner"`
	Contributors int    `json:"contributors"`
	Updates      uint64 `json:"updates"`
}

// MembersSnapshot returns the current membership sorted by name.
func (n *Node) MembersSnapshot() []MemberStatus {
	now := time.Now()
	n.mu.Lock()
	out := make([]MemberStatus, 0, len(n.members))
	for _, m := range n.members {
		out = append(out, MemberStatus{
			Name:        m.name,
			Domain:      m.domain,
			Addr:        m.addr,
			State:       m.state.String(),
			AgeMS:       now.Sub(m.joined).Milliseconds(),
			SinceSeenMS: now.Sub(m.lastSeen).Milliseconds(),
			Reports:     m.reports,
			Rejoins:     m.rejoins,
			Bundles:     append([]rds.BundleStatus(nil), m.bundles...),
		})
	}
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Status assembles the full status document.
func (n *Node) Status() Status {
	st := Status{
		Name:      n.cfg.Name,
		Domain:    n.cfg.Domain,
		Parent:    n.cfg.Parent,
		Advertise: n.cfg.Advertise,
		Members:   n.MembersSnapshot(),
		Bundles:   n.BundleStatuses(),
	}
	for _, r := range n.rollup.Rows() {
		st.Rollup = append(st.Rollup, RollupStatus{
			Key: r.Key, Value: r.Value, Combiner: r.Combiner,
			Contributors: r.Contributors, Updates: r.Updates,
		})
	}
	return st
}

// StatusJSON implements rds.PeerHandler.
func (n *Node) StatusJSON() ([]byte, error) {
	return json.MarshalIndent(n.Status(), "", "  ")
}
