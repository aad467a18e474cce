package federation

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"mbd/internal/elastic"
	"mbd/internal/mib"
	"mbd/internal/oid"
	"mbd/internal/rds"
)

// --- Rollup combiners ---------------------------------------------------

func TestRollupCombiners(t *testing.T) {
	vals := []MemberValue{
		{Member: "a", Value: "5", TimeMS: 10},
		{Member: "b", Value: "7.5", TimeMS: 30},
		{Member: "c", Value: "2", TimeMS: 20},
	}
	if got := Sum().Seed(&KeyState{}, vals); got != "14.5" {
		t.Fatalf("sum = %q, want 14.5", got)
	}
	if got := Max().Seed(&KeyState{}, vals); got != "7.5" {
		t.Fatalf("max = %q, want 7.5", got)
	}
	if got := Latest().Seed(&KeyState{}, vals); got != "7.5" {
		t.Fatalf("latest = %q, want 7.5 (b is newest)", got)
	}
	// Integral sums print as integers.
	if got := Sum().Seed(&KeyState{}, []MemberValue{{Value: "2"}, {Value: "3"}}); got != "5" {
		t.Fatalf("integral sum = %q, want 5", got)
	}
}

func TestRollupLatestPerMember(t *testing.T) {
	r := NewRollup(Sum())
	r.Report("a", "k", "5", 1)
	r.Report("b", "k", "7", 2)
	if v, _ := r.Value("k"); v != "12" {
		t.Fatalf("sum = %q, want 12", v)
	}
	// A member re-reporting (e.g. after a crash/rejoin) overwrites its
	// slot — never double-counts.
	combined, changed := r.Report("b", "k", "9", 3)
	if combined != "14" || !changed {
		t.Fatalf("after overwrite: %q (changed=%v), want 14", combined, changed)
	}
	if _, changed := r.Report("b", "k", "9", 4); changed {
		t.Fatal("identical re-report flagged as a change")
	}
	// Death drops the member's contribution entirely.
	ups := r.DropMember("b")
	if len(ups) != 1 || ups[0].Key != "k" || ups[0].Value != "5" {
		t.Fatalf("drop updates = %+v, want k=5", ups)
	}
	if v, _ := r.Value("k"); v != "5" {
		t.Fatalf("after drop = %q, want 5", v)
	}
	// Dropping the last contributor removes the key.
	ups = r.DropMember("a")
	if len(ups) != 1 || !ups[0].Removed {
		t.Fatalf("final drop = %+v, want removal", ups)
	}
	if _, ok := r.Value("k"); ok {
		t.Fatal("key survived losing every contributor")
	}
}

func TestRollupPerKeyCombiner(t *testing.T) {
	r := NewRollup(Sum())
	r.Report("a", "temp", "20", 1)
	r.Report("b", "temp", "30", 2)
	if v, _ := r.Value("temp"); v != "50" {
		t.Fatalf("default sum = %q", v)
	}
	r.SetCombiner("temp", Max())
	if v, _ := r.Value("temp"); v != "30" {
		t.Fatalf("after SetCombiner(max) = %q, want 30 (recombined)", v)
	}
	rows := r.Rows()
	if len(rows) != 1 || rows[0].Combiner != "max" || rows[0].Contributors != 2 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestDPCombiner(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	// A custom combination: sum of squares, delegated as DPL.
	src := `func combine(vals) {
		var total = 0;
		for (var i = 0; i < len(vals); i += 1) { total += vals[i] * vals[i]; }
		return total;
	}`
	c := DPCombiner(proc, "mgr", src, "combine")
	got := c.Seed(&KeyState{}, []MemberValue{{Member: "a", Value: "3"}, {Member: "b", Value: "4"}})
	if got != "25" {
		t.Fatalf("dp combine = %q, want 25", got)
	}
	if c.Name() != "dp:combine" {
		t.Fatalf("name = %q", c.Name())
	}
	// A broken combiner falls back to Latest rather than blanking.
	bad := DPCombiner(proc, "mgr", `func combine(vals) { return nosuchfn(vals); }`, "combine")
	got = bad.Seed(&KeyState{}, []MemberValue{{Member: "a", Value: "3", TimeMS: 1}, {Member: "b", Value: "4", TimeMS: 2}})
	if got != "4" {
		t.Fatalf("fallback combine = %q, want 4 (latest)", got)
	}
}

// --- Node fixtures ------------------------------------------------------

// testNode is one federated server on a real TCP socket.
type testNode struct {
	node *Node
	proc *elastic.Process
	addr string
	stop func()
}

// startNode boots an elastic process + federation node + RDS server.
// hb drives every failure-detection timescale (suspect 3×, dead 6×).
func startNode(t *testing.T, name, domain, parent string, comb Combiner, hb time.Duration) *testNode {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proc := elastic.NewProcess(elastic.Config{})
	node, err := New(Config{
		Name:              name,
		Domain:            domain,
		Proc:              proc,
		Parent:            parent,
		Advertise:         l.Addr().String(),
		Combiner:          comb,
		HeartbeatInterval: hb,
		SuspectAfter:      3 * hb,
		DeadAfter:         6 * hb,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := rds.NewServer(proc, nil, rds.WithPeerHandler(node))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, l)
	}()
	node.Start()
	tn := &testNode{node: node, proc: proc, addr: l.Addr().String()}
	var once bool
	tn.stop = func() {
		if once {
			return
		}
		once = true
		node.Stop()
		cancel()
		<-done
		proc.Stop()
	}
	t.Cleanup(tn.stop)
	return tn
}

// waitFor polls cond until it holds or t fails.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// memberState reads one member's state from the status document.
func memberState(n *Node, name string) (string, bool) {
	for _, m := range n.MembersSnapshot() {
		if m.Name == name {
			return m.State, true
		}
	}
	return "", false
}

// --- Membership & failure detection ------------------------------------

func TestJoinHeartbeatLifecycle(t *testing.T) {
	root := startNode(t, "root", "campus", "", nil, 20*time.Millisecond)
	leaf := startNode(t, "leaf", "lan", root.addr, nil, 20*time.Millisecond)

	waitFor(t, 5*time.Second, "leaf to join", func() bool {
		st, ok := memberState(root.node, "leaf")
		return ok && st == "alive"
	})

	// Kill the leaf silently: the detector must move it through suspect
	// to dead.
	leaf.stop()
	waitFor(t, 5*time.Second, "leaf to be declared dead", func() bool {
		st, _ := memberState(root.node, "leaf")
		return st == "dead"
	})

	// A new incarnation re-joins under the same name and revives.
	leaf2 := startNode(t, "leaf", "lan", root.addr, nil, 20*time.Millisecond)
	_ = leaf2
	waitFor(t, 5*time.Second, "leaf to revive", func() bool {
		st, _ := memberState(root.node, "leaf")
		return st == "alive"
	})
	for _, m := range root.node.MembersSnapshot() {
		if m.Name == "leaf" && m.Rejoins < 1 {
			t.Fatalf("rejoins = %d, want >= 1", m.Rejoins)
		}
	}
}

func TestHeartbeatUnknownMemberTriggersRejoin(t *testing.T) {
	n, err := New(Config{Name: "root", Domain: "d", Proc: elastic.NewProcess(elastic.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.cfg.Proc.Stop)
	if err := n.PeerSync("federation", "ghost", &rds.SyncBatch{}); !isUnknownMember(err) {
		t.Fatalf("beat from unknown member: %v, want ErrUnknownMember", err)
	}
	if err := n.PeerSync("federation", "ghost", &rds.SyncBatch{Reports: []rds.SyncReport{{Key: "k", Value: "1", TimeMS: 1}}}); !isUnknownMember(err) {
		t.Fatalf("report from unknown member: %v, want ErrUnknownMember", err)
	}
	if err := n.PeerJoin("federation", "root", "d", "x"); err == nil {
		t.Fatal("self-named member accepted")
	}
}

// --- Cascaded delegation ------------------------------------------------

func TestFanoutCascade(t *testing.T) {
	hb := 20 * time.Millisecond
	root := startNode(t, "root", "campus", "", Sum(), hb)
	startNode(t, "leaf-a", "lan-a", root.addr, nil, hb)
	startNode(t, "leaf-b", "lan-b", root.addr, nil, hb)
	waitFor(t, 5*time.Second, "both leaves to join", func() bool {
		return len(root.node.MembersSnapshot()) == 2
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res := root.node.Fanout(ctx, "mgr", "probe", "dpl",
		`func main() { report("1"); return 1; }`, "main", nil)
	if res.Accepted() != 3 || res.Rejected() != 0 {
		t.Fatalf("fanout = %d accepted / %d rejected, want 3/0: %+v",
			res.Accepted(), res.Rejected(), res.Outcomes)
	}
	for _, o := range res.Outcomes {
		if o.DPI == "" {
			t.Fatalf("outcome %s missing DPI: %+v", o.Member, o)
		}
	}
	// The DP landed in every member's repository — transfer once,
	// instantiate anywhere.
	for _, tn := range []*testNode{root} {
		if _, ok := tn.proc.Repository().Lookup("probe"); !ok {
			t.Fatalf("%s: probe not in repository", tn.node.Name())
		}
	}
}

func TestFanoutAdmissionGatePerHop(t *testing.T) {
	hb := 20 * time.Millisecond
	root := startNode(t, "root", "campus", "", nil, hb)
	startNode(t, "leaf", "lan", root.addr, nil, hb)
	waitFor(t, 5*time.Second, "leaf to join", func() bool {
		return len(root.node.MembersSnapshot()) == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A program that fails static analysis (unknown function) must be
	// rejected at EVERY hop — the cascade carries the rejection back.
	res := root.node.Fanout(ctx, "mgr", "bad", "dpl",
		`func main() { return nosuchfn(); }`, "", nil)
	if res.Accepted() != 0 || res.Rejected() != 2 {
		t.Fatalf("bad program: %d accepted / %d rejected, want 0/2", res.Accepted(), res.Rejected())
	}
	for _, o := range res.Outcomes {
		if o.Err == "" {
			t.Fatalf("rejected outcome carries no error: %+v", o)
		}
	}
}

func TestFanoutUnreachableMember(t *testing.T) {
	hb := 20 * time.Millisecond
	root := startNode(t, "root", "campus", "", nil, hb)
	leaf := startNode(t, "leaf", "lan", root.addr, nil, hb)
	waitFor(t, 5*time.Second, "leaf to join", func() bool {
		return len(root.node.MembersSnapshot()) == 1
	})
	// Kill the leaf but fan out before the detector declares it dead:
	// the transport failure is an outcome, not a lost delegation.
	leaf.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res := root.node.Fanout(ctx, "mgr", "p", "dpl", `func main() { return 1; }`, "", nil)
	if res.Accepted() != 1 {
		t.Fatalf("local hop should accept: %+v", res.Outcomes)
	}
	var sawTransport bool
	for _, o := range res.Outcomes {
		if !o.OK && strings.HasPrefix(o.Err, "transport:") {
			sawTransport = true
		}
	}
	if !sawTransport {
		t.Fatalf("no transport outcome for dead member: %+v", res.Outcomes)
	}
}

// --- Upstream rollup ----------------------------------------------------

func TestTwoTierRollup(t *testing.T) {
	hb := 20 * time.Millisecond
	root := startNode(t, "root", "campus", "", Sum(), hb)
	leafA := startNode(t, "leaf-a", "lan-a", root.addr, nil, hb)
	leafB := startNode(t, "leaf-b", "lan-b", root.addr, nil, hb)
	waitFor(t, 5*time.Second, "leaves to join", func() bool {
		return len(root.node.MembersSnapshot()) == 2
	})

	// Each member emits a local report; the instance suffix must strip
	// into one rollup key.
	leafA.proc.Publish("load#1", elastic.EventReport, "5")
	leafB.proc.Publish("load#1", elastic.EventReport, "7")
	root.proc.Publish("load#1", elastic.EventReport, "2")

	waitFor(t, 5*time.Second, "rollup to converge to 14", func() bool {
		v, ok := root.node.Rollup().Value("load")
		return ok && v == "14"
	})

	// A member's fresher value replaces its slot.
	leafB.proc.Publish("load#2", elastic.EventReport, "1")
	waitFor(t, 5*time.Second, "rollup to follow update to 8", func() bool {
		v, _ := root.node.Rollup().Value("load")
		return v == "8"
	})

	// Status document reflects the tree.
	st := root.node.Status()
	if st.Domain != "campus" || len(st.Members) != 2 || len(st.Rollup) != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.Rollup[0].Contributors != 3 {
		t.Fatalf("contributors = %d, want 3 (two leaves + self)", st.Rollup[0].Contributors)
	}
}

func TestDeadMemberContributionsDrop(t *testing.T) {
	hb := 20 * time.Millisecond
	root := startNode(t, "root", "campus", "", Sum(), hb)
	leafA := startNode(t, "leaf-a", "lan-a", root.addr, nil, hb)
	leafB := startNode(t, "leaf-b", "lan-b", root.addr, nil, hb)
	waitFor(t, 5*time.Second, "leaves to join", func() bool {
		return len(root.node.MembersSnapshot()) == 2
	})
	leafA.proc.Publish("k", elastic.EventReport, "5")
	leafB.proc.Publish("k", elastic.EventReport, "7")
	waitFor(t, 5*time.Second, "rollup of both leaves", func() bool {
		v, _ := root.node.Rollup().Value("k")
		return v == "12"
	})
	// Kill leaf-b: after death detection its 7 must leave the sum.
	leafB.stop()
	waitFor(t, 5*time.Second, "dead member's contribution to drop", func() bool {
		v, _ := root.node.Rollup().Value("k")
		return v == "5"
	})
}

// --- MIB subtree --------------------------------------------------------

func TestFederationMIBWalk(t *testing.T) {
	proc := elastic.NewProcess(elastic.Config{})
	t.Cleanup(proc.Stop)
	n, err := New(Config{Name: "root", Domain: "campus", Proc: proc})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.PeerJoin("federation", "leaf-a", "lan-a", "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := n.PeerSync("federation", "leaf-a", &rds.SyncBatch{Reports: []rds.SyncReport{{Key: "load", Value: "9", TimeMS: 1}}}); err != nil {
		t.Fatal(err)
	}

	tree := &mib.Tree{}
	if err := Mount(tree, n, OIDFederation); err != nil {
		t.Fatal(err)
	}
	walked := make(map[string]string)
	tree.Walk(OIDFederation, func(o oid.OID, v mib.Value) bool {
		walked[o.String()] = v.String()
		return true
	})
	base := OIDFederation.String()
	want := map[string]string{
		base + ".1.1.1": `"leaf-a"`,     // member name
		base + ".1.2.1": `"alive"`,      // member state
		base + ".1.4.1": "1(Counter64)", // reports merged
		base + ".2.1.1": `"load"`,       // rollup key
		base + ".2.2.1": `"9"`,          // combined value
		base + ".2.3.1": "1(Gauge32)",   // contributors
	}
	for o, v := range want {
		if walked[o] != v {
			t.Fatalf("walk[%s] = %q, want %q (all: %v)", o, walked[o], v, walked)
		}
	}
	// Walk order and GetNext agree: stepping cell by cell from the
	// prefix visits every instance the walk saw.
	n2 := 0
	cur := OIDFederation
	for {
		next, _, err := tree.GetNext(cur)
		if err != nil || !next.HasPrefix(OIDFederation) {
			break
		}
		n2++
		cur = next
	}
	if n2 != len(walked) {
		t.Fatalf("GetNext chain visited %d, walk visited %d", n2, len(walked))
	}
	// Point Gets resolve the same cells.
	if v, err := tree.Get(oid.MustParse(base + ".2.2.1")); err != nil || v.String() != `"9"` {
		t.Fatalf("Get rollup value = %v, %v", v, err)
	}
}
