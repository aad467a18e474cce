package incr

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"mbd/internal/mib"
	"mbd/internal/oid"
	"mbd/internal/vdl"
)

func testDevice(t *testing.T) *mib.Device {
	t.Helper()
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "incr-dev", Interfaces: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dev.SetLoad(mib.LoadProfile{Utilization: 0.5, BroadcastFraction: 0.05, ErrorRate: 0.01, CollisionRate: 0.02})
	dev.Advance(10 * time.Second)
	return dev
}

// crosscheck asserts that every maintained view's incremental result is
// deeply equal (rows, cells, order, BaseRows) to a from-scratch Eval.
func crosscheck(t *testing.T, a *IncrMCVA, ev *vdl.Evaluator, defs map[string]*vdl.ViewDef) {
	t.Helper()
	for name, def := range defs {
		got, err := a.Query(name)
		if err != nil {
			t.Fatalf("incremental %s: %v", name, err)
		}
		want, err := ev.Eval(def)
		if err != nil {
			t.Fatalf("full %s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("view %s diverged:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

var testViews = []string{
	`view busy {
  from ifTable;
  select ifIndex, ifDescr, ifInOctets + ifOutOctets as total;
  where ifOperStatus == 1 && ifInOctets > 0;
}`,
	`view routesByIf {
  from ipRouteTable as r join ifTable as i on r:ipRouteIfIndex == i:ifIndex;
  select r:ipRouteDest, i:ifDescr, r:ipRouteMetric1;
  where i:ifOperStatus == 1;
}`,
	`view summary {
  from ifTable;
  select count() as n, sum(ifInOctets) as inSum, avg(ifOutOctets) as outAvg,
         min(ifInErrors) as loErr, max(ifInErrors) as hiErr;
  where ifOperStatus == 1;
}`,
	`view conns {
  from tcpConnTable;
  select tcpConnLocalPort, tcpConnRemAddress, tcpConnRemPort;
  where tcpConnState == 5;
}`,
}

func setup(t *testing.T, dev *mib.Device) (*IncrMCVA, *vdl.Evaluator, map[string]*vdl.ViewDef) {
	t.Helper()
	schema := vdl.MIB2()
	a := New(Config{Tree: dev.Tree(), Schema: schema})
	t.Cleanup(a.Close)
	defs := make(map[string]*vdl.ViewDef)
	for _, src := range testViews {
		def, err := a.Define(src)
		if err != nil {
			t.Fatal(err)
		}
		defs[def.Name] = def
	}
	return a, vdl.NewEvaluator(dev.Tree(), schema), defs
}

func TestIncrMatchesEvalThroughMutations(t *testing.T) {
	dev := testDevice(t)
	a, ev, defs := setup(t, dev)
	crosscheck(t, a, ev, defs)

	dev.AddRoute([4]byte{192, 168, 1, 0}, 1, 2, [4]byte{10, 0, 0, 254})
	dev.AddRoute([4]byte{192, 168, 2, 0}, 2, 5, [4]byte{10, 0, 0, 253})
	dev.AddRoute([4]byte{192, 168, 3, 0}, 9, 1, [4]byte{10, 0, 0, 252}) // dangling ifIndex
	crosscheck(t, a, ev, defs)

	dev.OpenConn(mib.ConnID{LocalAddr: [4]byte{10, 0, 0, 1}, LocalPort: 23, RemAddr: [4]byte{172, 16, 0, 9}, RemPort: 40000})
	dev.OpenConn(mib.ConnID{LocalAddr: [4]byte{10, 0, 0, 1}, LocalPort: 80, RemAddr: [4]byte{172, 16, 0, 10}, RemPort: 40001})
	crosscheck(t, a, ev, defs)

	dev.Advance(5 * time.Second) // bulk counter movement on every interface
	crosscheck(t, a, ev, defs)

	if err := dev.SetInterfaceStatus(2, mib.IfStatusDown); err != nil {
		t.Fatal(err)
	}
	crosscheck(t, a, ev, defs)

	dev.DelRoute([4]byte{192, 168, 1, 0})
	dev.CloseConn(mib.ConnID{LocalAddr: [4]byte{10, 0, 0, 1}, LocalPort: 23, RemAddr: [4]byte{172, 16, 0, 9}, RemPort: 40000})
	crosscheck(t, a, ev, defs)

	st := a.Stats()
	if st.DeltasFolded == 0 {
		t.Fatal("no deltas folded")
	}
	if st.Recomputes != 0 {
		t.Fatalf("recomputes = %d, want 0 (no overflow or errors)", st.Recomputes)
	}
	if st.ChangesLost != 0 {
		t.Fatalf("changes lost = %d", st.ChangesLost)
	}
}

// TestRandomizedCrosscheck applies 10k mixed mutations and asserts the
// incremental state stays byte-identical to a full recompute — the
// acceptance crosscheck for the delta operators.
func TestRandomizedCrosscheck(t *testing.T) {
	const mutations = 10000
	dev := testDevice(t)
	a, ev, defs := setup(t, dev)
	rng := rand.New(rand.NewSource(42))

	dests := make([][4]byte, 24)
	for i := range dests {
		dests[i] = [4]byte{10, 1, byte(i), 0}
	}
	conns := make([]mib.ConnID, 24)
	for i := range conns {
		conns[i] = mib.ConnID{
			LocalAddr: [4]byte{10, 0, 0, 1}, LocalPort: uint16(1024 + i),
			RemAddr: [4]byte{172, 16, 0, byte(i)}, RemPort: uint16(40000 + i),
		}
	}
	for i := 0; i < mutations; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2:
			dev.AddRoute(dests[rng.Intn(len(dests))], uint32(1+rng.Intn(6)), int64(rng.Intn(10)), [4]byte{10, 0, 0, 254})
		case 3:
			dev.DelRoute(dests[rng.Intn(len(dests))])
		case 4, 5:
			dev.OpenConn(conns[rng.Intn(len(conns))])
		case 6:
			dev.CloseConn(conns[rng.Intn(len(conns))])
		case 7:
			dev.Advance(time.Duration(1+rng.Intn(900)) * time.Millisecond)
		case 8:
			status := mib.IfStatusUp
			if rng.Intn(2) == 0 {
				status = mib.IfStatusDown
			}
			if err := dev.SetInterfaceStatus(uint32(1+rng.Intn(4)), status); err != nil {
				t.Fatal(err)
			}
		case 9:
			// Direct SNMP-style cell write through the tree, exercising
			// the Tree.Set capture path.
			c := conns[rng.Intn(len(conns))]
			o := append(append(oid.OID{}, mib.OIDTCPConnEntry...), mib.TCPConnState,
				uint32(c.LocalAddr[0]), uint32(c.LocalAddr[1]), uint32(c.LocalAddr[2]), uint32(c.LocalAddr[3]),
				uint32(c.LocalPort),
				uint32(c.RemAddr[0]), uint32(c.RemAddr[1]), uint32(c.RemAddr[2]), uint32(c.RemAddr[3]),
				uint32(c.RemPort))
			_ = dev.Tree().Set(o, mib.Int(int64(1+rng.Intn(11))))
		}
		if i%500 == 0 {
			crosscheck(t, a, ev, defs)
		}
	}
	crosscheck(t, a, ev, defs)
	st := a.Stats()
	if st.Recomputes != 0 || st.ChangesLost != 0 {
		t.Fatalf("recomputes=%d lost=%d, want 0/0", st.Recomputes, st.ChangesLost)
	}
	if st.DeltasFolded == 0 {
		t.Fatal("no deltas folded")
	}
	t.Logf("folded %d deltas over %d mutations", st.DeltasFolded, mutations)
}

// TestOverflowFallsBackToRecompute floods the subscription queue past
// its depth between reads and asserts the engine resyncs to a correct
// result, counting recomputes.
func TestOverflowFallsBackToRecompute(t *testing.T) {
	dev := testDevice(t)
	a, ev, defs := setup(t, dev)
	for i := 0; i < 5000; i++ {
		dev.AddRoute([4]byte{10, 2, byte(i % 50), 0}, uint32(1+i%4), int64(i), [4]byte{10, 0, 0, 254})
	}
	crosscheck(t, a, ev, defs)
	st := a.Stats()
	if st.ChangesLost == 0 {
		t.Fatal("expected overflow after 5000 unread changes")
	}
	if st.Recomputes == 0 {
		t.Fatal("expected counted recomputes after overflow")
	}
}

// TestEmptyTablesAndZeroRowAggregates covers the evaluator edge cases
// on both paths: empty base tables, joins on absent keys, and
// aggregates over zero rows.
func TestEmptyTablesAndZeroRowAggregates(t *testing.T) {
	// A bare tree with empty MemRows-backed tables only.
	tree := &mib.Tree{}
	routes := &mib.MemRows{}
	conns := &mib.MemRows{}
	if err := tree.Mount(mib.OIDIPRouteEntry, mib.NewTable(routes, mib.IPRouteDest, mib.IPRouteIfIndex, mib.IPRouteMetric1)); err != nil {
		t.Fatal(err)
	}
	if err := tree.Mount(mib.OIDTCPConnEntry, mib.NewTable(conns, mib.TCPConnState, mib.TCPConnLocalPort)); err != nil {
		t.Fatal(err)
	}
	routes.Watch(tree.Changes(), mib.OIDIPRouteEntry)
	conns.Watch(tree.Changes(), mib.OIDTCPConnEntry)

	schema := vdl.MIB2()
	a := New(Config{Tree: tree, Schema: schema})
	defer a.Close()
	ev := vdl.NewEvaluator(tree, schema)
	defs := make(map[string]*vdl.ViewDef)
	for _, src := range []string{
		`view emptySel { from ipRouteTable; select ipRouteDest; where ipRouteMetric1 > 0; }`,
		`view emptyJoin {
  from ipRouteTable as r join tcpConnTable as c on r:ipRouteMetric1 == c:tcpConnLocalPort;
  select r:ipRouteDest, c:tcpConnState;
}`,
		`view emptyAgg { from ipRouteTable; select count() as n, sum(ipRouteMetric1) as s, avg(ipRouteMetric1) as a, min(ipRouteMetric1) as lo; }`,
	} {
		def, err := a.Define(src)
		if err != nil {
			t.Fatal(err)
		}
		defs[def.Name] = def
	}
	crosscheck(t, a, ev, defs)

	res, err := a.Query("emptyAgg")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("aggregate over zero rows: %d rows, want 1", len(res.Rows))
	}
	if n := res.Rows[0].Cells[0]; n != int64(0) {
		t.Fatalf("count over empty = %v", n)
	}

	// Rows whose join keys never match on the other side.
	routes.Upsert(oid.OID{10, 3, 0, 0}, map[uint32]mib.Value{
		mib.IPRouteDest: mib.IP(10, 3, 0, 0), mib.IPRouteIfIndex: mib.Int(1), mib.IPRouteMetric1: mib.Int(7),
	})
	conns.Upsert(oid.OID{1, 2, 3, 4, 99, 5, 6, 7, 8, 100}, map[uint32]mib.Value{
		mib.TCPConnState: mib.Int(5), mib.TCPConnLocalPort: mib.Int(99),
	})
	crosscheck(t, a, ev, defs)
	if res, err = a.Query("emptyJoin"); err != nil || len(res.Rows) != 0 {
		t.Fatalf("join on absent key: rows=%v err=%v", res.Rows, err)
	}

	// Now make the keys match and confirm the pair appears.
	routes.SetCellValue(oid.OID{10, 3, 0, 0}, mib.IPRouteMetric1, mib.Int(99))
	crosscheck(t, a, ev, defs)
	if res, err = a.Query("emptyJoin"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("join after key match: rows=%v err=%v", res.Rows, err)
	}

	// Empty again after deletions.
	routes.Delete(oid.OID{10, 3, 0, 0})
	conns.Delete(oid.OID{1, 2, 3, 4, 99, 5, 6, 7, 8, 100})
	crosscheck(t, a, ev, defs)
}

// TestMinMaxRetractionRecombines retracts the current extremum and
// checks the decline-and-recombine path reproduces Eval exactly.
func TestMinMaxRetractionRecombines(t *testing.T) {
	dev := testDevice(t)
	schema := vdl.MIB2()
	a := New(Config{Tree: dev.Tree(), Schema: schema})
	defer a.Close()
	ev := vdl.NewEvaluator(dev.Tree(), schema)
	def, err := a.Define(`view metricSpan { from ipRouteTable; select min(ipRouteMetric1) as lo, max(ipRouteMetric1) as hi, count() as n; }`)
	if err != nil {
		t.Fatal(err)
	}
	defs := map[string]*vdl.ViewDef{def.Name: def}
	for i := 0; i < 8; i++ {
		dev.AddRoute([4]byte{10, 4, byte(i), 0}, 1, int64(i), [4]byte{10, 0, 0, 254})
	}
	crosscheck(t, a, ev, defs)
	dev.DelRoute([4]byte{10, 4, 7, 0}) // retract current max
	crosscheck(t, a, ev, defs)
	dev.DelRoute([4]byte{10, 4, 0, 0}) // retract current min
	crosscheck(t, a, ev, defs)
}

// TestBackgroundPump starts the pump goroutine and waits for a change
// to be folded without an explicit Query-side pump.
func TestBackgroundPump(t *testing.T) {
	dev := testDevice(t)
	a, ev, defs := setup(t, dev)
	a.Start()
	defer a.Stop()
	dev.AddRoute([4]byte{10, 5, 0, 0}, 1, 3, [4]byte{10, 0, 0, 254})
	deadline := time.Now().Add(2 * time.Second)
	for a.Stats().DeltasFolded == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background pump folded nothing")
		}
		time.Sleep(time.Millisecond)
	}
	crosscheck(t, a, ev, defs)
}

// TestDefineReplacesView redefines a name and checks the old delta
// wiring is gone.
func TestDefineReplacesView(t *testing.T) {
	dev := testDevice(t)
	schema := vdl.MIB2()
	a := New(Config{Tree: dev.Tree(), Schema: schema})
	defer a.Close()
	ev := vdl.NewEvaluator(dev.Tree(), schema)
	if _, err := a.Define(`view v { from ifTable; select ifIndex; }`); err != nil {
		t.Fatal(err)
	}
	def, err := a.Define(`view v { from ifTable; select ifDescr; where ifOperStatus == 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	dev.Advance(time.Second)
	crosscheck(t, a, ev, map[string]*vdl.ViewDef{"v": def})
	if got := a.Views(); len(got) != 1 || got[0] != "v" {
		t.Fatalf("views = %v", got)
	}
}

// TestStatusJSON sanity-checks the management payloads.
func TestStatusJSON(t *testing.T) {
	dev := testDevice(t)
	a, _, _ := setup(t, dev)
	b, err := a.StatusJSON()
	if err != nil {
		t.Fatal(err)
	}
	if s := string(b); !strings.Contains(s, `"busy"`) || !strings.Contains(s, `"deltas_folded"`) {
		t.Fatalf("status payload: %s", s)
	}
	q, err := a.QueryJSON("busy")
	if err != nil {
		t.Fatal(err)
	}
	if s := string(q); !strings.Contains(s, `"columns"`) || !strings.Contains(s, `"rows"`) {
		t.Fatalf("query payload: %s", s)
	}
	if _, err := a.QueryJSON("nope"); err == nil {
		t.Fatal("QueryJSON of unknown view succeeded")
	}
}
