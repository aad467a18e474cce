package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"mbd/internal/elastic"
	"mbd/internal/rds"
)

// The fleet smoke: an in-process simulated domain tree — one root, a
// mid tier, and MBD_FLEET_LEAVES leaves (default 60 locally; CI runs
// 1000) — wired over net.Pipe through the Config.Dialer seam instead of
// real sockets. It proves the three fleet-scale claims end to end:
//
//  1. rollup convergence: every leaf's report reaches the root's
//     combined value;
//  2. golden bundles: one publish stages everywhere, an unchanged
//     re-publish transfers zero artifact bytes, and an atomic
//     upgrade + rollback flips every member;
//  3. O(delta) rollup: after convergence, one leaf's change costs a
//     mid O(1) member visits, not O(members).
//
// MBD_FLEET_STATS, when set, receives a JSON convergence-stats
// artifact (uploaded by the fleet-smoke CI job).

// fleetNet routes synthetic addresses ("node://name") to in-process
// RDS servers over pipes.
type fleetNet struct {
	mu      sync.Mutex
	servers map[string]*rds.Server
	ctx     context.Context
}

func (f *fleetNet) register(addr string, srv *rds.Server) {
	f.mu.Lock()
	f.servers[addr] = srv
	f.mu.Unlock()
}

func (f *fleetNet) dial(addr string) (net.Conn, error) {
	f.mu.Lock()
	srv := f.servers[addr]
	f.mu.Unlock()
	if srv == nil {
		return nil, fmt.Errorf("fleet: no server at %s", addr)
	}
	cl, sv := net.Pipe()
	go srv.ServeConn(f.ctx, sv)
	return cl, nil
}

// fleetNode is one simulated member.
type fleetNode struct {
	node *Node
	proc *elastic.Process
	addr string
}

func startFleetNode(t *testing.T, fn *fleetNet, name, domain, parent string, hb time.Duration) *fleetNode {
	t.Helper()
	addr := "node://" + name
	proc := elastic.NewProcess(elastic.Config{})
	node, err := New(Config{
		Name:              name,
		Domain:            domain,
		Proc:              proc,
		Parent:            parent,
		Advertise:         addr,
		Combiner:          Sum(),
		HeartbeatInterval: hb,
		SuspectAfter:      30 * hb,
		DeadAfter:         60 * hb,
		Dialer:            fn.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	fn.register(addr, rds.NewServer(proc, nil, rds.WithPeerHandler(node)))
	node.Start()
	t.Cleanup(func() {
		node.Stop()
		proc.Stop()
	})
	return &fleetNode{node: node, proc: proc, addr: addr}
}

func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet smoke is not a -short test")
	}
	leaves := 60
	if s := os.Getenv("MBD_FLEET_LEAVES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad MBD_FLEET_LEAVES %q", s)
		}
		leaves = n
	}
	mids := 8
	if leaves < mids {
		mids = 1
	}
	hb := 50 * time.Millisecond
	started := time.Now()

	netCtx, netCancel := context.WithCancel(context.Background())
	defer netCancel()
	fn := &fleetNet{servers: make(map[string]*rds.Server), ctx: netCtx}

	root := startFleetNode(t, fn, "root", "fleet", "", hb)
	midNodes := make([]*fleetNode, mids)
	for i := range midNodes {
		midNodes[i] = startFleetNode(t, fn, fmt.Sprintf("mid-%02d", i), fmt.Sprintf("zone-%02d", i), root.addr, hb)
	}
	leafNodes := make([]*fleetNode, leaves)
	for i := range leafNodes {
		mid := midNodes[i%mids]
		leafNodes[i] = startFleetNode(t, fn, fmt.Sprintf("leaf-%04d", i), fmt.Sprintf("rack-%04d", i), mid.addr, hb)
	}
	total := 1 + mids + leaves
	t.Logf("fleet: %d members (%d mids, %d leaves)", total, mids, leaves)

	// 1. Rollup convergence: every leaf contributes load=1; the root's
	// combined sum must reach exactly the leaf count.
	for _, l := range leafNodes {
		l.proc.Publish("load#1", elastic.EventReport, "1")
	}
	want := strconv.Itoa(leaves)
	waitFor(t, 120*time.Second, "fleet rollup convergence", func() bool {
		v, ok := root.node.rollup.Value("load")
		return ok && v == want
	})
	convergedIn := time.Since(started)
	t.Logf("rollup converged to %s in %s", want, convergedIn)

	ctx, cancel := context.WithTimeout(context.Background(), 240*time.Second)
	defer cancel()

	// 2. Golden bundle rollout. One publish from the root stages the
	// content-addressed bundle at every member.
	stageStart := time.Now()
	res, err := root.node.PeerBundleStage(ctx, "federation", "suite", "", fleetBundle(1))
	if err != nil {
		t.Fatal(err)
	}
	hash1 := res.Hash
	if res.Staged() != total {
		t.Fatalf("first publish staged %d/%d members", res.Staged(), total)
	}
	firstBytes := res.TransferredBytes()
	if firstBytes == 0 {
		t.Fatal("first publish moved no artifact bytes")
	}
	stagedIn := time.Since(stageStart)

	// Delta push: the unchanged re-publish must transfer ZERO artifact
	// bytes — every hop answers the probe from its store.
	res, err = root.node.PeerBundleStage(ctx, "federation", "suite", "", fleetBundle(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash != hash1 || res.Staged() != total {
		t.Fatalf("re-publish: hash=%q staged=%d/%d", res.Hash, res.Staged(), total)
	}
	if res.TransferredBytes() != 0 {
		t.Fatalf("unchanged re-publish transferred %d artifact bytes across %d members, want 0",
			res.TransferredBytes(), total)
	}

	// Atomic upgrade: stage v2, flip the whole fleet, then roll back.
	res, err = root.node.PeerBundleStage(ctx, "federation", "suite", "", fleetBundle(2))
	if err != nil {
		t.Fatal(err)
	}
	hash2 := res.Hash
	upgradeStart := time.Now()
	fr, err := root.node.PeerBundleActivate(ctx, "federation", "suite", hash2)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Accepted() != total || fr.Rejected() != 0 {
		t.Fatalf("upgrade accepted %d/%d (rejected %d)", fr.Accepted(), total, fr.Rejected())
	}
	upgradedIn := time.Since(upgradeStart)
	fr, err = root.node.PeerBundleActivate(ctx, "federation", "suite", hash1)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Accepted() != total {
		t.Fatalf("rollback accepted %d/%d", fr.Accepted(), total)
	}
	if bs := leafNodes[leaves-1].node.BundleStatuses(); len(bs) != 1 || bs[0].Hash != hash1 || bs[0].Staged != 2 {
		t.Fatalf("leaf after rollback: %+v, want active v1 with both versions staged", bs)
	}

	// 3. O(delta) rollup: one leaf's change must cost its mid O(1)
	// member visits even with ~leaves/mids contributors materialized.
	mid := midNodes[0]
	before := rollupStats(mid.node.Rollup())
	leafNodes[0].proc.Publish("load#1", elastic.EventReport, "3")
	waitFor(t, 60*time.Second, "delta propagation", func() bool {
		v, ok := root.node.rollup.Value("load")
		return ok && v == strconv.Itoa(leaves+2)
	})
	after := rollupStats(mid.node.Rollup())
	visited := after.MembersVisited - before.MembersVisited
	reports := after.Reports - before.Reports
	if reports == 0 {
		t.Fatal("mid-00 saw no reports for the delta")
	}
	// Allow some slack for unrelated in-flight frames, but the budget
	// must stay far below the mid's contributor count.
	if visited > 4*reports {
		t.Fatalf("delta cost %d member visits over %d reports — O(members), not O(delta)", visited, reports)
	}
	t.Logf("delta: %d reports, %d member visits at mid-00 (%d contributors)",
		reports, visited, leaves/mids)

	if path := os.Getenv("MBD_FLEET_STATS"); path != "" {
		stats := map[string]any{
			"members":             total,
			"mids":                mids,
			"leaves":              leaves,
			"heartbeat_ms":        hb.Milliseconds(),
			"converge_ms":         convergedIn.Milliseconds(),
			"stage_ms":            stagedIn.Milliseconds(),
			"upgrade_ms":          upgradedIn.Milliseconds(),
			"first_publish_bytes": firstBytes,
			"republish_bytes":     0,
			"delta_reports":       reports,
			"delta_member_visits": visited,
			"root_rollup":         rollupStats(root.node.Rollup()),
			"mid0_rollup":         after,
		}
		doc, err := json.MarshalIndent(stats, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote convergence stats to %s", path)
	}
}

// fleetBundle is the versioned one-item bundle the fleet test rolls
// out; version changes the source so the content addresses differ.
func fleetBundle(version uint64) []byte {
	src := fmt.Sprintf(`func main() { return %d; }`, version)
	return (&rds.Bundle{Lineage: "suite", Version: version, Items: []rds.BundleItem{
		{DP: "fleet-probe", Lang: "dpl", Blob: []byte(src), Entry: "main"},
	}}).Encode()
}
