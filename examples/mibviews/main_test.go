package main

// Freshness check for the continuous-view demo: after every device
// mutation the incrementally-maintained view must already reflect the
// change on the very next query, with zero full recomputes.

import (
	"testing"

	"mbd/internal/mib"
	"mbd/internal/vdl"
)

func TestContinuousViewFreshness(t *testing.T) {
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "demo", Interfaces: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a := vdl.NewMCVA(dev.Tree(), vdl.MIB2())
	defer a.Close()
	def, err := a.Define(`view watchRoutes {
  from ipRouteTable as r join ifTable as i on r:ipRouteIfIndex == i:ifIndex;
  select r:ipRouteDest, i:ifDescr;
  where i:ifOperStatus == 1;
}`)
	if err != nil {
		t.Fatal(err)
	}
	rows := func() int {
		t.Helper()
		res, err := a.Query(def.Name)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}

	if got := rows(); got != 0 {
		t.Fatalf("empty device: rows = %d", got)
	}
	dev.AddRoute([4]byte{192, 168, 1, 0}, 2, 3, [4]byte{10, 0, 0, 254})
	if got := rows(); got != 1 {
		t.Fatalf("after AddRoute: rows = %d, want 1 (stale view?)", got)
	}
	if err := dev.SetInterfaceStatus(2, mib.IfStatusDown); err != nil {
		t.Fatal(err)
	}
	if got := rows(); got != 0 {
		t.Fatalf("after ifdown: rows = %d, want 0 (stale view?)", got)
	}
	if err := dev.SetInterfaceStatus(2, mib.IfStatusUp); err != nil {
		t.Fatal(err)
	}
	if got := rows(); got != 1 {
		t.Fatalf("after ifup: rows = %d, want 1 (stale view?)", got)
	}
	dev.DelRoute([4]byte{192, 168, 1, 0})
	if got := rows(); got != 0 {
		t.Fatalf("after DelRoute: rows = %d, want 0 (stale view?)", got)
	}

	st := a.Stats()
	if st.DeltasFolded == 0 {
		t.Fatal("no deltas folded — view is being recomputed, not maintained")
	}
	if st.Recomputes != 0 {
		t.Fatalf("recomputes = %d, want 0", st.Recomputes)
	}

	// The demo program itself must run clean.
	if err := run(); err != nil {
		t.Fatalf("demo run: %v", err)
	}
}
