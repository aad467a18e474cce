package mib

import (
	"testing"
	"time"

	"mbd/internal/oid"
)

func drain(s *ChangeSub) []Change {
	var out []Change
	for {
		c, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, c)
	}
}

func TestChangeHubPublishSubscribe(t *testing.T) {
	var h ChangeHub
	if h.Active() {
		t.Fatal("fresh hub reports active")
	}
	s := h.Subscribe(4)
	if !h.Active() {
		t.Fatal("hub with subscriber reports inactive")
	}
	idx := oid.OID{7}
	h.Publish(Change{Kind: ChangeRow, Table: OIDIfEntry, Index: idx})
	idx[0] = 99 // the hub must have cloned the index
	got := drain(s)
	if len(got) != 1 {
		t.Fatalf("got %d changes, want 1", len(got))
	}
	if got[0].Kind != ChangeRow || !got[0].Table.Equal(OIDIfEntry) || !got[0].Index.Equal(oid.OID{7}) {
		t.Fatalf("unexpected change %+v", got[0])
	}
	s.Close()
	if h.Active() {
		t.Fatal("hub active after last unsubscribe")
	}
	h.Publish(Change{Kind: ChangeDrop, Table: OIDIfEntry, Index: oid.OID{1}})
	if got := drain(s); len(got) != 0 {
		t.Fatalf("closed subscriber received %d changes", len(got))
	}
}

func TestChangeSubDropsOldestOnOverflow(t *testing.T) {
	var h ChangeHub
	s := h.Subscribe(2)
	for i := uint32(1); i <= 5; i++ {
		h.Publish(Change{Kind: ChangeRow, Table: OIDIfEntry, Index: oid.OID{i}})
	}
	got := drain(s)
	if len(got) != 2 {
		t.Fatalf("queue holds %d, want 2", len(got))
	}
	// Oldest dropped: the two newest remain.
	if !got[0].Index.Equal(oid.OID{4}) || !got[1].Index.Equal(oid.OID{5}) {
		t.Fatalf("kept %v and %v, want newest two", got[0].Index, got[1].Index)
	}
	if s.Lost() != 3 {
		t.Fatalf("Lost() = %d, want 3", s.Lost())
	}
}

func TestChangeHubNoSubscriberPublishAllocs(t *testing.T) {
	var h ChangeHub
	idx := oid.OID{1, 2, 3}
	allocs := testing.AllocsPerRun(1000, func() {
		h.Publish(Change{Kind: ChangeCell, Table: OIDIfEntry, Col: 10, Index: idx})
	})
	if allocs != 0 {
		t.Fatalf("no-subscriber Publish allocates %.1f/op, want 0", allocs)
	}
}

func TestMemRowsPublishesRowLifecycle(t *testing.T) {
	var tree Tree
	m := &MemRows{}
	if err := tree.Mount(OIDTCPConnEntry, NewTable(m, TCPConnState)); err != nil {
		t.Fatal(err)
	}
	m.Watch(tree.Changes(), OIDTCPConnEntry)
	s := tree.Changes().Subscribe(16)

	idx := oid.OID{1, 1}
	m.Upsert(idx, map[uint32]Value{TCPConnState: Int(5)})
	m.Upsert(idx, map[uint32]Value{TCPConnState: Int(6)})
	m.Delete(oid.OID{9, 9}) // missing row: no event
	m.Delete(idx)
	got := drain(s)
	if len(got) != 3 {
		t.Fatalf("got %d changes, want 3: %+v", len(got), got)
	}
	wantKinds := []ChangeKind{ChangeRow, ChangeRow, ChangeDrop}
	for i, w := range wantKinds {
		if got[i].Kind != w || !got[i].Table.Equal(OIDTCPConnEntry) || !got[i].Index.Equal(idx) {
			t.Fatalf("change %d = %+v, want kind %s at %v", i, got[i], w, idx)
		}
	}
}

func TestDevicePublishesChanges(t *testing.T) {
	d, err := NewDevice(DeviceConfig{Name: "chg", Interfaces: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := d.Tree().Changes().Subscribe(64)

	c := ConnID{LocalAddr: [4]byte{10, 0, 0, 1}, LocalPort: 23, RemAddr: [4]byte{10, 0, 0, 2}, RemPort: 40000}
	d.OpenConn(c)
	d.CloseConn(c)
	d.AddRoute([4]byte{192, 168, 1, 0}, 1, 2, [4]byte{10, 0, 0, 254})
	d.DelRoute([4]byte{192, 168, 1, 0})
	d.Advance(time.Second)
	if err := d.SetInterfaceStatus(2, IfStatusDown); err != nil {
		t.Fatal(err)
	}

	byTable := map[string]int{}
	for _, ch := range drain(s) {
		byTable[ch.Table.String()]++
	}
	if byTable[OIDTCPConnEntry.String()] != 2 {
		t.Fatalf("tcpConn changes = %d, want 2 (map %v)", byTable[OIDTCPConnEntry.String()], byTable)
	}
	if byTable[OIDIPRouteEntry.String()] != 2 {
		t.Fatalf("ipRoute changes = %d, want 2 (map %v)", byTable[OIDIPRouteEntry.String()], byTable)
	}
	// Advance publishes one row change per interface, plus one for the
	// status flip.
	if byTable[OIDIfEntry.String()] != 3 {
		t.Fatalf("ifTable changes = %d, want 3 (map %v)", byTable[OIDIfEntry.String()], byTable)
	}
}
