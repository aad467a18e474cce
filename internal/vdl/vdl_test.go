package vdl

import (
	"strings"
	"testing"
	"time"

	"mbd/internal/mib"
	"mbd/internal/obs"
)

func testDevice(t *testing.T) *mib.Device {
	t.Helper()
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "view-dev", Interfaces: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	dev.SetLoad(mib.LoadProfile{Utilization: 0.4, BroadcastFraction: 0.05, ErrorRate: 0.01, CollisionRate: 0.02})
	dev.Advance(30 * time.Second)
	dev.AddRoute([4]byte{192, 168, 1, 0}, 1, 2, [4]byte{10, 0, 0, 254})
	dev.AddRoute([4]byte{192, 168, 2, 0}, 2, 5, [4]byte{10, 0, 0, 253})
	dev.AddRoute([4]byte{192, 168, 3, 0}, 9, 1, [4]byte{10, 0, 0, 252}) // dangling ifIndex
	dev.OpenConn(mib.ConnID{LocalAddr: [4]byte{10, 0, 0, 1}, LocalPort: 23, RemAddr: [4]byte{172, 16, 0, 9}, RemPort: 40000})
	dev.OpenConn(mib.ConnID{LocalAddr: [4]byte{10, 0, 0, 1}, LocalPort: 80, RemAddr: [4]byte{172, 16, 0, 10}, RemPort: 40001})
	return dev
}

func TestParseMinimalView(t *testing.T) {
	v, err := Parse(`view up { from ifTable; select ifDescr, ifInOctets; where ifOperStatus == 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Name != "up" || v.From.Table != "ifTable" || len(v.Select) != 2 || v.Where == nil {
		t.Fatalf("view = %+v", v)
	}
	if v.Select[0].Name != "ifDescr" {
		t.Fatalf("default name = %q", v.Select[0].Name)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`view x { select a; }`,                  // missing from
		`view x { from t select a; }`,           // missing semicolon
		`view x { from t; }`,                    // missing select
		`view x { from t; select ; }`,           // empty select
		`view x { from t; select a; where ; }`,  // empty where
		`view x { from t; select sum(); }`,      // sum needs arg
		`view { from t; select a; }`,            // missing name
		`view x { from t join u; select a; }`,   // join without on
		`view x { from t; select a; } trailing`, // trailing tokens
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestProjectionAndSelection(t *testing.T) {
	dev := testDevice(t)
	ev := NewEvaluator(dev.Tree(), MIB2())
	v, err := Parse(`view busy {
  from ifTable;
  select ifIndex, ifDescr, ifInOctets + ifOutOctets as total;
  where ifOperStatus == 1 && ifInOctets > 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.Eval(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 interfaces", len(res.Rows))
	}
	if res.Columns[2] != "total" {
		t.Fatalf("columns = %v", res.Columns)
	}
	for _, r := range res.Rows {
		idx := r.Cells[0].(int64)
		descr := r.Cells[1].(string)
		total := r.Cells[2].(int64)
		if descr == "" || total <= 0 {
			t.Fatalf("row %d: %v", idx, r.Cells)
		}
	}
	// Selection: take down one interface and re-evaluate.
	if err := dev.SetInterfaceStatus(2, mib.IfStatusDown); err != nil {
		t.Fatal(err)
	}
	res, err = ev.Eval(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows after fault = %d, want 2", len(res.Rows))
	}
}

func TestAggregates(t *testing.T) {
	dev := testDevice(t)
	ev := NewEvaluator(dev.Tree(), MIB2())
	v, err := Parse(`view stats {
  from ifTable;
  select count() as n, sum(ifInOctets) as inSum, avg(ifInOctets) as inAvg,
         min(ifIndex) as lo, max(ifIndex) as hi;
}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.Eval(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("aggregate rows = %d", len(res.Rows))
	}
	r := res.Rows[0]
	n := r.Cells[0].(int64)
	sum := r.Cells[1].(float64)
	avg := r.Cells[2].(float64)
	if n != 3 || sum <= 0 || avg != sum/3 {
		t.Fatalf("aggregates = %v", r.Cells)
	}
	if r.Cells[3].(int64) != 1 || r.Cells[4].(int64) != 3 {
		t.Fatalf("min/max = %v %v", r.Cells[3], r.Cells[4])
	}
}

func TestAggregateArithmetic(t *testing.T) {
	dev := testDevice(t)
	ev := NewEvaluator(dev.Tree(), MIB2())
	v, err := Parse(`view ratio { from ifTable; select sum(ifInErrors) / sum(ifInUcastPkts) as errRatio; }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.Eval(v)
	if err != nil {
		t.Fatal(err)
	}
	ratio, ok := res.Rows[0].Cells[0].(float64)
	if !ok || ratio <= 0 || ratio > 0.1 {
		t.Fatalf("error ratio = %v", res.Rows[0].Cells[0])
	}
}

func TestJoinRouteWithInterface(t *testing.T) {
	// The dissertation's motivating example: "resolution of routing
	// problems typically involves correlation of routing ... and other
	// configuration tables".
	dev := testDevice(t)
	ev := NewEvaluator(dev.Tree(), MIB2())
	v, err := Parse(`view routesByIf {
  from ipRouteTable as r join ifTable as i on r:ipRouteIfIndex == i:ifIndex;
  select r:ipRouteDest, i:ifDescr, r:ipRouteMetric1, i:ifOperStatus;
  where r:ipRouteMetric1 < 10;
}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.Eval(v)
	if err != nil {
		t.Fatal(err)
	}
	// 3 routes, but one points at ifIndex 9 which has no interface row.
	if len(res.Rows) != 2 {
		t.Fatalf("join rows = %d, want 2", len(res.Rows))
	}
	for _, r := range res.Rows {
		if !strings.HasPrefix(r.Cells[0].(string), "192.168.") || !strings.HasPrefix(r.Cells[1].(string), "eth") {
			t.Fatalf("row = %v", r.Cells)
		}
	}
	if res.BaseRows != 3+3 {
		t.Fatalf("base rows scanned = %d", res.BaseRows)
	}
}

func TestEvalErrors(t *testing.T) {
	dev := testDevice(t)
	ev := NewEvaluator(dev.Tree(), MIB2())
	cases := []string{
		`view x { from noSuchTable; select a; }`,
		`view x { from ifTable; select noSuchColumn; }`,
		`view x { from ifTable; select ghost:ifIndex; }`,
		`view x { from ifTable; select ifIndex; where count() > 1; }`,
		`view x { from ifTable; select ifDescr + 1; }`,
		`view x { from ifTable; select ifIndex / 0; }`,
		`view x { from ifTable; select sum(ifDescr); }`,
		`view x { from ifTable; select ifIndex, count(); }`, // bare col in aggregate
	}
	for _, src := range cases {
		v, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := ev.Eval(v); err == nil {
			t.Errorf("Eval(%q) succeeded", src)
		}
	}
}

func TestMCVADefineQuerySnapshot(t *testing.T) {
	dev := testDevice(t)
	m := NewMCVA(dev.Tree(), MIB2())
	if _, err := m.Define(`view conns { from tcpConnTable; select tcpConnRemAddress, tcpConnRemPort; }`); err != nil {
		t.Fatal(err)
	}
	res, err := m.Query("conns")
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("query = %+v, %v", res, err)
	}
	id, err := m.Snapshot("conns")
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the base table; snapshot must not move, live query must.
	dev.OpenConn(mib.ConnID{LocalAddr: [4]byte{10, 0, 0, 1}, LocalPort: 25, RemAddr: [4]byte{1, 1, 1, 1}, RemPort: 9})
	snap, ok := m.SnapshotResult(id)
	if !ok || len(snap.Rows) != 2 {
		t.Fatalf("snapshot rows = %d, want 2 (fixed)", len(snap.Rows))
	}
	res, err = m.Query("conns")
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("live rows = %d, want 3", len(res.Rows))
	}
	// Snapshot is a fixed point: repeated reads identical.
	again, _ := m.SnapshotResult(id)
	if len(again.Rows) != len(snap.Rows) {
		t.Fatal("snapshot changed between reads")
	}
	if !m.DropSnapshot(id) || m.DropSnapshot(id) {
		t.Fatal("drop semantics wrong")
	}
	if _, err := m.Query("ghost"); err == nil {
		t.Fatal("unknown view queried")
	}
	if _, err := m.Define(`view bad { from nope; select x; }`); err == nil {
		t.Fatal("invalid view installed")
	}
	if got := m.Views(); len(got) != 1 || got[0] != "conns" {
		t.Fatalf("views = %v", got)
	}
}

func TestRenderSMIBallooning(t *testing.T) {
	// E7's qualitative claim as a unit test: the SMI-style rendering is
	// several times longer than the VDL source.
	src := `view busy {
  from ifTable;
  select ifIndex, ifInOctets + ifOutOctets as total;
  where ifOperStatus == 1;
}`
	v, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	smi := RenderSMI(v, 424242)
	vdlLines := SpecLines(src)
	smiLines := SpecLines(smi)
	if vdlLines != 5 {
		t.Fatalf("the canonical example should be 5 lines, got %d", vdlLines)
	}
	if smiLines < 4*vdlLines {
		t.Fatalf("SMI rendering only %d lines vs %d VDL", smiLines, vdlLines)
	}
	for _, want := range []string{"OBJECT-TYPE", "DERIVATION", "SELECTION", "busyTotal"} {
		if !strings.Contains(smi, want) {
			t.Errorf("SMI rendering lacks %q", want)
		}
	}
}

func TestRenderExpr(t *testing.T) {
	v, err := Parse(`view x { from ifTable; select -ifIndex + 2 as a, count() as b, sum(ifIndex) as c; where ifDescr == "eth0" || !(ifIndex < 3); }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := RenderExpr(v.Select[0].Expr); got != "(-ifIndex + 2)" {
		t.Errorf("render = %q", got)
	}
	if got := RenderExpr(v.Where); !strings.Contains(got, `"eth0"`) || !strings.Contains(got, "||") {
		t.Errorf("where render = %q", got)
	}
}

func TestParseAllMultipleViews(t *testing.T) {
	views, err := ParseAll(`
view a { from ifTable; select ifIndex; }
view b { from ifTable; select count() as n; }
`)
	if err != nil || len(views) != 2 || views[0].Name != "a" || views[1].Name != "b" {
		t.Fatalf("ParseAll = %v, %v", views, err)
	}
}

func TestSnapshotLRUEviction(t *testing.T) {
	dev := testDevice(t)
	m := NewMCVA(dev.Tree(), MIB2())
	if _, err := m.Define(`view conns { from tcpConnTable; select tcpConnRemPort; }`); err != nil {
		t.Fatal(err)
	}
	setSnapshotCap(m, 3)
	ids := make([]int64, 0, 5)
	for i := 0; i < 5; i++ {
		id, err := m.Snapshot("conns")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if got := m.SnapshotsEvicted(); got != 2 {
		t.Fatalf("evicted = %d, want 2", got)
	}
	// The two oldest are gone; the three newest survive.
	for _, id := range ids[:2] {
		if _, ok := m.SnapshotResult(id); ok {
			t.Fatalf("snapshot %d survived past cap", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := m.SnapshotResult(id); !ok {
			t.Fatalf("snapshot %d evicted while within cap", id)
		}
	}
	// Touching the LRU end protects it from the next eviction.
	if _, ok := m.SnapshotResult(ids[2]); !ok {
		t.Fatal("touch failed")
	}
	if _, err := m.Snapshot("conns"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.SnapshotResult(ids[2]); !ok {
		t.Fatal("recently-used snapshot evicted before stale ones")
	}
	if _, ok := m.SnapshotResult(ids[3]); ok {
		t.Fatal("stale snapshot survived past touched one")
	}
	// Lowering the cap evicts immediately; the counter is monotonic.
	setSnapshotCap(m, 1)
	if got := m.SnapshotsEvicted(); got != 5 {
		t.Fatalf("after cap lower evicted = %d, want 5", got)
	}
	// Instrument exposes the counter under the canonical metric name.
	reg := obs.NewRegistry()
	m.Instrument(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "vdl_snapshots_evicted_total 5") {
		t.Fatalf("metric missing:\n%s", b.String())
	}
}

// setSnapshotCap lowers m's retained-snapshot bound to n, evicting any
// excess at once.
func setSnapshotCap(m *MCVA, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snapCap = n
	m.evictLocked()
}
