package vdl

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mbd/internal/mib"
	"mbd/internal/oid"
)

// vmibFixture is a multi-view fixture: a projection, a view that
// matches nothing, a join, and an aggregate — so the v-mib order has to
// skip an empty view and serve a one-row one.
var vmibFixture = []string{
	`view up { from ifTable; select ifIndex, ifDescr, ifInOctets; where ifOperStatus == 1; }`,
	`view none { from ifTable; select ifIndex; where ifIndex > 1000; }`,
	`view routesByIf {
  from ipRouteTable as r join ifTable as i on r:ipRouteIfIndex == i:ifIndex;
  select r:ipRouteDest, i:ifDescr, r:ipRouteMetric1;
}`,
	`view summary { from ipRouteTable; select count() as n, max(ipRouteMetric1) as worst; }`,
}

// evalInstances derives the v-mib's instance list from the reference
// evaluator: view.column.row, column-major, 1-based.
func evalInstances(t *testing.T, ev *Evaluator, defs []*ViewDef) []string {
	t.Helper()
	var out []string
	for vi, def := range defs {
		res, err := ev.Eval(def)
		if err != nil {
			t.Fatalf("Eval %s: %v", def.Name, err)
		}
		for ci := range res.Columns {
			for ri, row := range res.Rows {
				o := OIDViews.Append(uint32(vi+1), uint32(ci+1), uint32(ri+1))
				out = append(out, fmt.Sprintf("%s=%s", o, toSMI(row.Cells[ci])))
			}
		}
	}
	return out
}

// TestVMIBOrderMatchesEval: the GetNext walk of the v-mib, the bulk
// Walk and per-instance Get all serve exactly the instance list derived
// from Evaluator.Eval — initially, after a mutation burst, and after a
// forced change-queue overflow — and a walk of settled views neither
// recomputes a view nor folds a delta.
func TestVMIBOrderMatchesEval(t *testing.T) {
	dev := testDevice(t)
	tree := dev.Tree()
	m := NewMCVA(tree, MIB2())
	defer m.Close()
	var defs []*ViewDef
	for _, src := range vmibFixture {
		def, err := m.Define(src)
		if err != nil {
			t.Fatal(err)
		}
		defs = append(defs, def)
	}
	if err := tree.Mount(OIDViews, m.Handler()); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(tree, MIB2())

	check := func(stage string) {
		t.Helper()
		want := evalInstances(t, ev, defs)
		if len(want) == 0 {
			t.Fatalf("%s: fixture has no instances", stage)
		}
		var byNext []string
		for cur := OIDViews; ; {
			next, v, err := tree.GetNext(cur)
			if err != nil || !next.HasPrefix(OIDViews) {
				break
			}
			if got, err := tree.Get(next); err != nil || !got.Equal(v) {
				t.Fatalf("%s: Get(%s) = %v, %v; GetNext served %v", stage, next, got, err, v)
			}
			byNext = append(byNext, fmt.Sprintf("%s=%s", next, v))
			cur = next
		}
		before := m.Stats()
		var byWalk []string
		tree.Walk(OIDViews, func(o oid.OID, v mib.Value) bool {
			byWalk = append(byWalk, fmt.Sprintf("%s=%s", o, v))
			return true
		})
		if after := m.Stats(); after.Recomputes != before.Recomputes || after.DeltasFolded != before.DeltasFolded {
			t.Fatalf("%s: walking settled views did maintenance work: %+v -> %+v", stage, before, after)
		}
		for name, got := range map[string][]string{"GetNext": byNext, "Walk": byWalk} {
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: %s walk diverged from Eval:\n got %v\nwant %v", stage, name, got, want)
			}
		}
	}
	check("initial")

	for i := 0; i < 40; i++ {
		dev.AddRoute([4]byte{10, 9, byte(i), 0}, uint32(1+i%3), int64(i%7), [4]byte{10, 0, 0, 254})
	}
	dev.DelRoute([4]byte{10, 9, 3, 0})
	if err := dev.SetInterfaceStatus(2, mib.IfStatusDown); err != nil {
		t.Fatal(err)
	}
	dev.Advance(3 * time.Second)
	check("after mutation burst")
	if st := m.Stats(); st.Recomputes != 0 || st.DeltasFolded == 0 {
		t.Fatalf("burst should fold deltas without recomputing: %+v", st)
	}

	for i := 0; i < changeQueueDepth+500; i++ {
		dev.AddRoute([4]byte{10, 9, byte(i % 60), 0}, uint32(1+i%3), int64(i%9), [4]byte{10, 0, 0, 254})
	}
	check("after queue overflow")
	if st := m.Stats(); st.ChangesLost == 0 || st.Recomputes == 0 {
		t.Fatalf("overflow was not forced: %+v", st)
	}
}

// TestVMIBSuccessorOfAnyOID: GetNext accepts OIDs that are not
// instances — shorter, longer, zero arcs, past a view's last cell.
func TestVMIBSuccessorOfAnyOID(t *testing.T) {
	dev := testDevice(t)
	m := NewMCVA(dev.Tree(), MIB2())
	defer m.Close()
	for _, src := range vmibFixture {
		if _, err := m.Define(src); err != nil {
			t.Fatal(err)
		}
	}
	up, err := m.Query("up")
	if err != nil || len(up.Rows) < 2 {
		t.Fatalf("fixture view up = %+v, %v", up, err)
	}
	last := uint32(len(up.Rows))
	h := m.Handler()
	for _, c := range []struct {
		rel  oid.OID
		want string
	}{
		{nil, "1.1.1"},
		{oid.OID{0, 9, 9}, "1.1.1"},
		{oid.OID{1}, "1.1.1"},
		{oid.OID{1, 0, 7}, "1.1.1"},
		{oid.OID{1, 2}, "1.2.1"},
		{oid.OID{1, 2, 0}, "1.2.1"},
		{oid.OID{1, 2, 1, 5}, "1.2.2"},
		{oid.OID{1, 1, last}, "1.2.1"},
		{oid.OID{1, 3, last}, "3.1.1"}, // view 2 is empty
		{oid.OID{1, 3, ^uint32(0)}, "3.1.1"},
		{oid.OID{2}, "3.1.1"},
		{oid.OID{4, 2, 1}, ""},
		{oid.OID{5}, ""},
	} {
		next, _, ok := h.NextRel(c.rel)
		if got := next.String(); ok != (c.want != "") || (ok && got != c.want) {
			t.Errorf("NextRel(%v) = %s, %v; want %q", c.rel, got, ok, c.want)
		}
	}
}

// TestVMIBConcurrentReaders reaches the one agent the way mbdserver
// does — SNMP walks, queries and snapshots, a redefinition and the
// background pump, all while the device mutates — and checks the
// quiesced v-mib still equals Eval. Run under -race.
func TestVMIBConcurrentReaders(t *testing.T) {
	dev := testDevice(t)
	tree := dev.Tree()
	m := NewMCVA(tree, MIB2())
	defer m.Close()
	var defs []*ViewDef
	for _, src := range vmibFixture {
		def, err := m.Define(src)
		if err != nil {
			t.Fatal(err)
		}
		defs = append(defs, def)
	}
	if err := tree.Mount(OIDViews, m.Handler()); err != nil {
		t.Fatal(err)
	}
	m.Start()

	var wg sync.WaitGroup
	run := func(n int, step func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				step(i)
			}
		}()
	}
	run(300, func(i int) {
		dev.AddRoute([4]byte{10, 8, byte(i % 20), 0}, uint32(1+i%3), int64(i%5), [4]byte{10, 0, 0, 254})
		if i%7 == 0 {
			dev.DelRoute([4]byte{10, 8, byte(i % 20), 0})
		}
	})
	run(30, func(int) {
		for cur := OIDViews; ; {
			next, _, err := tree.GetNext(cur)
			if err != nil || !next.HasPrefix(OIDViews) {
				return
			}
			cur = next
		}
	})
	run(30, func(int) { tree.Walk(OIDViews, func(oid.OID, mib.Value) bool { return true }) })
	run(100, func(i int) {
		if _, err := m.Query("routesByIf"); err != nil {
			t.Error(err)
		}
		if id, err := m.Snapshot("summary"); err != nil {
			t.Error(err)
		} else if i%2 == 0 {
			m.DropSnapshot(id)
		}
	})
	run(10, func(int) {
		if _, err := m.Define(vmibFixture[0]); err != nil {
			t.Error(err)
		}
	})
	wg.Wait()
	m.Stop()

	want := evalInstances(t, NewEvaluator(tree, MIB2()), defs)
	var got []string
	tree.Walk(OIDViews, func(o oid.OID, v mib.Value) bool {
		got = append(got, fmt.Sprintf("%s=%s", o, v))
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("quiesced v-mib diverged from Eval:\n got %v\nwant %v", got, want)
	}
}
