package mib

import (
	"testing"
	"time"

	"mbd/internal/oid"
)

func newTestDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(DeviceConfig{Name: "dev1", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeviceSystemGroup(t *testing.T) {
	d := newTestDevice(t)
	v, err := d.Tree().Get(OIDSysName.Append(0))
	if err != nil || string(v.Bytes) != "dev1" {
		t.Fatalf("sysName = %v, %v", v, err)
	}
	d.Advance(10 * time.Second)
	v, err = d.Tree().Get(OIDSysUpTime.Append(0))
	if err != nil || v.Kind != KindTimeTicks || v.Uint != 1000 {
		t.Fatalf("sysUpTime after 10s = %v, %v (want 1000 ticks)", v, err)
	}
}

func TestDeviceCountersIntegrateLoad(t *testing.T) {
	d := newTestDevice(t)
	d.SetLoad(LoadProfile{Utilization: 0.5, BroadcastFraction: 0.1, ErrorRate: 0.01, CollisionRate: 0.05})
	d.Advance(10 * time.Second)

	rx, err := d.Tree().Get(OIDEnetRxOk.Append(0))
	if err != nil {
		t.Fatal(err)
	}
	// 0.5 utilization × 10 Mb/s × 10 s = 50 Mbit ± noise.
	if rx.Uint < 45_000_000 || rx.Uint > 55_000_000 {
		t.Fatalf("rxOkBits = %d, want ≈50M", rx.Uint)
	}
	pkts, _ := d.Tree().Get(OIDEnetRxPkts.Append(0))
	bcast, _ := d.Tree().Get(OIDEnetRxBcast.Append(0))
	if pkts.Uint == 0 || bcast.Uint == 0 {
		t.Fatal("packet counters did not advance")
	}
	ratio := float64(bcast.Uint) / float64(pkts.Uint)
	if ratio < 0.08 || ratio > 0.12 {
		t.Fatalf("broadcast ratio = %f, want ≈0.1", ratio)
	}
}

func TestDeviceDeterminism(t *testing.T) {
	a, _ := NewDevice(DeviceConfig{Name: "d", Seed: 7})
	b, _ := NewDevice(DeviceConfig{Name: "d", Seed: 7})
	for i := 0; i < 100; i++ {
		a.Advance(time.Second)
		b.Advance(time.Second)
	}
	va, _ := a.Tree().Get(OIDEnetRxOk.Append(0))
	vb, _ := b.Tree().Get(OIDEnetRxOk.Append(0))
	if va.Uint != vb.Uint {
		t.Fatalf("same seed diverged: %d vs %d", va.Uint, vb.Uint)
	}
}

func TestDeviceInterfaceTable(t *testing.T) {
	d := newTestDevice(t)
	d.Advance(5 * time.Second)

	// ifOperStatus.1 is up.
	v, err := d.Tree().Get(OIDIfEntry.Append(IfOperStatus, 1))
	if err != nil || v.Int != IfStatusUp {
		t.Fatalf("ifOperStatus.1 = %v, %v", v, err)
	}
	if err := d.SetInterfaceStatus(1, IfStatusDown); err != nil {
		t.Fatal(err)
	}
	v, _ = d.Tree().Get(OIDIfEntry.Append(IfOperStatus, 1))
	if v.Int != IfStatusDown {
		t.Fatalf("ifOperStatus.1 after fault = %v", v)
	}
	if err := d.SetInterfaceStatus(99, IfStatusDown); err == nil {
		t.Fatal("bogus ifIndex accepted")
	}

	// Walking ifEntry yields column-major order over both interfaces.
	var cells []string
	d.Tree().Walk(OIDIfEntry, func(o oid.OID, v Value) bool {
		rel, _ := o.Index(OIDIfEntry)
		cells = append(cells, rel.String())
		return true
	})
	if len(cells) != len(ifColumns)*2 {
		t.Fatalf("ifEntry walk visited %d cells, want %d", len(cells), len(ifColumns)*2)
	}
	if cells[0] != "1.1" || cells[1] != "1.2" || cells[2] != "2.1" {
		t.Fatalf("walk starts %v", cells[:3])
	}
	// A downed interface stops accumulating octets.
	before, _ := d.Tree().Get(OIDIfEntry.Append(IfInOctets, 1))
	d.Advance(5 * time.Second)
	after, _ := d.Tree().Get(OIDIfEntry.Append(IfInOctets, 1))
	if before.Uint != after.Uint {
		t.Fatal("downed interface kept counting")
	}
}

func TestDeviceTCPConnTable(t *testing.T) {
	d := newTestDevice(t)
	c := ConnID{LocalAddr: [4]byte{10, 0, 0, 1}, LocalPort: 23, RemAddr: [4]byte{192, 168, 1, 9}, RemPort: 40001}
	d.OpenConn(c)
	if d.tcpConns.Len() != 1 {
		t.Fatal("OpenConn did not insert")
	}
	idx := oid.OID{10, 0, 0, 1, 23, 192, 168, 1, 9, 40001}
	v, err := d.Tree().Get(OIDTCPConnEntry.Append(TCPConnState).Append(idx...))
	if err != nil || v.Int != TCPStateEstablished {
		t.Fatalf("tcpConnState = %v, %v", v, err)
	}
	v, err = d.Tree().Get(OIDTCPConnEntry.Append(TCPConnRemPort).Append(idx...))
	if err != nil || v.Int != 40001 {
		t.Fatalf("tcpConnRemPort = %v, %v", v, err)
	}
	if !d.CloseConn(c) || d.tcpConns.Len() != 0 {
		t.Fatal("CloseConn failed")
	}
}

func TestDeviceRouteTable(t *testing.T) {
	d := newTestDevice(t)
	d.AddRoute([4]byte{192, 168, 5, 0}, 1, 3, [4]byte{10, 0, 0, 254})
	d.AddRoute([4]byte{192, 168, 6, 0}, 2, 1, [4]byte{10, 0, 0, 253})
	if d.ipRoutes.Len() != 2 {
		t.Fatal("routes not inserted")
	}
	v, err := d.Tree().Get(OIDIPRouteEntry.Append(IPRouteMetric1, 192, 168, 5, 0))
	if err != nil || v.Int != 3 {
		t.Fatalf("metric = %v, %v", v, err)
	}
	if !d.DelRoute([4]byte{192, 168, 5, 0}) || d.ipRoutes.Len() != 1 {
		t.Fatal("DelRoute failed")
	}
}

func TestDeviceConfigValidation(t *testing.T) {
	if _, err := NewDevice(DeviceConfig{}); err == nil {
		t.Fatal("unnamed device accepted")
	}
	d, err := NewDevice(DeviceConfig{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if d.load.Utilization <= 0 {
		t.Fatal("default load missing")
	}
	if d.Now() != 0 {
		t.Fatal("fresh device has nonzero uptime")
	}
	d.Advance(-time.Second) // must be a no-op
	if d.Now() != 0 {
		t.Fatal("negative Advance changed time")
	}
}

func TestDeviceFullWalkTerminates(t *testing.T) {
	d := newTestDevice(t)
	d.OpenConn(ConnID{LocalAddr: [4]byte{10, 0, 0, 1}, LocalPort: 80, RemAddr: [4]byte{1, 2, 3, 4}, RemPort: 5})
	d.AddRoute([4]byte{0, 0, 0, 0}, 1, 1, [4]byte{10, 0, 0, 254})
	seen := map[string]bool{}
	n := d.Tree().Walk(oid.MustParse("1"), func(o oid.OID, v Value) bool {
		if seen[o.String()] {
			t.Fatalf("walk revisited %s", o)
		}
		seen[o.String()] = true
		return true
	})
	// 7 system scalars + ifNumber + ifTable + tcpConn(5 cols) +
	// route(7 cols) + 5 private counters.
	wantMin := 7 + 1 + len(ifColumns)*2 + 5 + 7 + 5
	if n < wantMin {
		t.Fatalf("full walk visited %d instances, want ≥ %d", n, wantMin)
	}
}
