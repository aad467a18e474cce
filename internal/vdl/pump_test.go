package vdl

import (
	"testing"

	"mbd/internal/mib"
)

// TestQueryReadsItsWrites: with the background pump running, a Query
// sees every change made before it. The pump must never hold a change
// taken off the queue outside the lock the query pumps under, or the
// query pumps an empty queue and answers the stale view.
func TestQueryReadsItsWrites(t *testing.T) {
	dev := testDevice(t)
	m := NewMCVA(dev.Tree(), MIB2())
	defer m.Close()
	if _, err := m.Define(`view up { from ifTable; select ifIndex; where ifOperStatus == 1; }`); err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Stop()
	stale := 0
	for i := 0; i < 20000; i++ {
		status, want := mib.IfStatusDown, 2
		if i%2 == 1 {
			status, want = mib.IfStatusUp, 3
		}
		if err := dev.SetInterfaceStatus(3, status); err != nil {
			t.Fatal(err)
		}
		res, err := m.Query("up")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want {
			stale++
		}
	}
	if stale > 0 {
		t.Fatalf("%d of 20000 queries read a view older than the write before them", stale)
	}
}
