package mib

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mbd/internal/oid"
)

// LoadProfile describes the offered traffic on a device's segment as a
// function of virtual time. All rates are instantaneous; the Device
// integrates them over Advance steps.
type LoadProfile struct {
	// Utilization is the fraction of link capacity in use, 0..1.
	Utilization float64
	// BroadcastFraction is the fraction of received packets that are
	// broadcasts.
	BroadcastFraction float64
	// ErrorRate is the fraction of received frames that are damaged.
	ErrorRate float64
	// CollisionRate is collisions per received packet (CSMA/CD load
	// proxy; grows superlinearly with utilization on real Ethernet,
	// callers model that by setting it explicitly).
	CollisionRate float64
}

// DeviceConfig parameterizes a simulated managed device.
type DeviceConfig struct {
	// Name becomes sysName; required.
	Name string
	// Addr is the device's IP address (defaults to 10.0.0.1).
	Addr [4]byte
	// Interfaces is the number of network interfaces (default 2).
	Interfaces int
	// LinkBitsPerSec is the segment capacity (default 10 Mb/s, the
	// 10,000,000 denominator in the paper's utilization formula).
	LinkBitsPerSec float64
	// AvgPacketBits is the mean packet size in bits (default 4096,
	// i.e. 512-octet frames).
	AvgPacketBits float64
	// Seed seeds the device's private noise source.
	Seed int64
}

// Device is a simulated managed network element. It owns a Tree
// populated with the MIB-II subset (system, interfaces, ip routes, tcp
// connections) and the private Ethernet-concentrator counters the
// paper's health formulas read.
//
// Time is virtual: nothing changes except through Advance, so
// experiments are deterministic and can run thousands of simulated
// seconds in microseconds.
type Device struct {
	cfg DeviceConfig

	mu       sync.Mutex
	now      time.Duration // virtual time since boot
	load     LoadProfile
	rng      *rand.Rand
	tree     *Tree
	ifRows   *MemRows
	tcpConns *MemRows
	ipRoutes *MemRows

	// Segment counters (the private MIB). Held as uint64 and exposed
	// with Counter32 wrap semantics, as period-authentic agents did.
	rxOkBits   uint64
	collisions uint64
	rxBcast    uint64
	rxPkts     uint64
	rxErrs     uint64

	ifaces []*deviceIface

	opens uint64 // tcp connection counter for unique ports
}

type deviceIface struct {
	index      uint32
	descr      string
	speed      uint64
	oper       int
	inOctets   uint64
	outOctets  uint64
	inUcast    uint64
	inNUcast   uint64
	inErrors   uint64
	outUcast   uint64
	lastChange uint64
}

// NewDevice constructs and instruments a simulated device.
func NewDevice(cfg DeviceConfig) (*Device, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("mib: device needs a name")
	}
	if cfg.Interfaces <= 0 {
		cfg.Interfaces = 2
	}
	if cfg.LinkBitsPerSec <= 0 {
		cfg.LinkBitsPerSec = 10_000_000
	}
	if cfg.AvgPacketBits <= 0 {
		cfg.AvgPacketBits = 4096
	}
	if cfg.Addr == ([4]byte{}) {
		cfg.Addr = [4]byte{10, 0, 0, 1}
	}
	d := &Device{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		tree:     &Tree{},
		ifRows:   &MemRows{},
		tcpConns: &MemRows{},
		ipRoutes: &MemRows{},
		load:     LoadProfile{Utilization: 0.05, BroadcastFraction: 0.02, ErrorRate: 0.001, CollisionRate: 0.01},
	}
	for i := 0; i < cfg.Interfaces; i++ {
		d.ifaces = append(d.ifaces, &deviceIface{
			index: uint32(i + 1),
			descr: fmt.Sprintf("eth%d", i),
			speed: uint64(cfg.LinkBitsPerSec),
			oper:  IfStatusUp,
		})
	}
	if err := d.instrument(); err != nil {
		return nil, err
	}
	return d, nil
}

// Tree returns the device's MIB tree. Delegated agents read it
// directly; the SNMP agent serves it remotely.
func (d *Device) Tree() *Tree { return d.tree }

// Name returns the configured device name.
func (d *Device) Name() string { return d.cfg.Name }

// Addr returns the device's configured IP address (used as the trap
// agent-addr field).
func (d *Device) Addr() [4]byte { return d.cfg.Addr }

func (d *Device) instrument() error {
	mounts := []struct {
		prefix oid.OID
		h      Handler
	}{
		{OIDSysDescr, ConstScalar(Str("MbD simulated managed device"))},
		{OIDSysObjectID, ConstScalar(OIDValue(OIDPrivateEnet))},
		{OIDSysUpTime, &Scalar{Get: func() Value {
			d.mu.Lock()
			defer d.mu.Unlock()
			return TimeTicks(uint64(d.now / (10 * time.Millisecond)))
		}}},
		{OIDSysContact, ConstScalar(Str("noc@example.net"))},
		{OIDSysName, ConstScalar(Str(d.cfg.Name))},
		{OIDSysLocation, ConstScalar(Str("simulated LAN segment"))},
		{OIDSysServices, ConstScalar(Int(72))},
		{OIDIfNumber, &Scalar{Get: func() Value { return Int(int64(len(d.ifaces))) }}},
		{OIDIfEntry, &ifTableHandler{d: d}},
		{OIDTCPConnEntry, NewTable(d.tcpConns,
			TCPConnState, TCPConnLocalAddr, TCPConnLocalPort, TCPConnRemAddr, TCPConnRemPort)},
		{OIDIPRouteEntry, NewTable(d.ipRoutes,
			IPRouteDest, IPRouteIfIndex, IPRouteMetric1, IPRouteNextHop, IPRouteType, IPRouteProto, IPRouteAge)},
		{OIDEnetRxOk, &Scalar{Get: d.counter(&d.rxOkBits)}},
		{OIDEnetColl, &Scalar{Get: d.counter(&d.collisions)}},
		{OIDEnetRxBcast, &Scalar{Get: d.counter(&d.rxBcast)}},
		{OIDEnetRxPkts, &Scalar{Get: d.counter(&d.rxPkts)}},
		{OIDEnetRxErrs, &Scalar{Get: d.counter(&d.rxErrs)}},
	}
	for _, m := range mounts {
		if err := d.tree.Mount(m.prefix, m.h); err != nil {
			return fmt.Errorf("mib: instrumenting %s: %w", d.cfg.Name, err)
		}
	}
	d.tcpConns.Watch(d.tree.Changes(), OIDTCPConnEntry)
	d.ipRoutes.Watch(d.tree.Changes(), OIDIPRouteEntry)
	return nil
}

func (d *Device) counter(p *uint64) func() Value {
	return func() Value {
		d.mu.Lock()
		defer d.mu.Unlock()
		return Counter32(*p)
	}
}

// SetLoad replaces the device's instantaneous load profile. Experiments
// use this to inject episodes (congestion, broadcast storms, error
// bursts).
func (d *Device) SetLoad(p LoadProfile) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.load = p
}

// Now returns the device's virtual time since boot.
func (d *Device) Now() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.now
}

// Advance moves virtual time forward by dt, integrating the load
// profile into all counters. Noise of ±2% keeps successive deltas from
// being perfectly flat without breaking determinism (the noise source
// is seeded).
func (d *Device) Advance(dt time.Duration) {
	if dt <= 0 {
		return
	}
	d.mu.Lock()
	d.now += dt
	sec := dt.Seconds()
	noise := 1 + (d.rng.Float64()-0.5)*0.04
	bits := d.load.Utilization * d.cfg.LinkBitsPerSec * sec * noise
	if bits < 0 {
		bits = 0
	}
	pkts := bits / d.cfg.AvgPacketBits
	d.rxOkBits += uint64(bits)
	d.rxPkts += uint64(pkts)
	d.rxBcast += uint64(pkts * d.load.BroadcastFraction)
	d.rxErrs += uint64(pkts * d.load.ErrorRate)
	d.collisions += uint64(pkts * d.load.CollisionRate)
	perIf := bits / 8 / float64(len(d.ifaces)) // octets split across interfaces
	for _, ifc := range d.ifaces {
		if ifc.oper != IfStatusUp {
			continue
		}
		ifc.inOctets += uint64(perIf)
		ifc.outOctets += uint64(perIf * 0.8)
		ifc.inUcast += uint64(pkts * (1 - d.load.BroadcastFraction) / float64(len(d.ifaces)))
		ifc.inNUcast += uint64(pkts * d.load.BroadcastFraction / float64(len(d.ifaces)))
		ifc.inErrors += uint64(pkts * d.load.ErrorRate / float64(len(d.ifaces)))
		ifc.outUcast += uint64(pkts * 0.8 / float64(len(d.ifaces)))
	}
	d.mu.Unlock()
	d.publishIfRows()
}

// publishIfRows reports every interface row as changed — Advance bumps
// all counters at once, so per-cell deltas would be pure overhead. With
// no change subscribers this is one atomic load.
func (d *Device) publishIfRows() {
	hub := d.tree.Changes()
	if !hub.Active() {
		return
	}
	for _, ifc := range d.ifaces {
		hub.Publish(Change{Kind: ChangeRow, Table: OIDIfEntry, Index: oid.OID{ifc.index}})
	}
}

// SetInterfaceStatus changes an interface's operational status
// (IfStatusUp or IfStatusDown), simulating link faults.
func (d *Device) SetInterfaceStatus(index uint32, status int) error {
	d.mu.Lock()
	found := false
	for _, ifc := range d.ifaces {
		if ifc.index == index {
			ifc.oper = status
			ifc.lastChange = uint64(d.now / (10 * time.Millisecond))
			found = true
			break
		}
	}
	d.mu.Unlock()
	if !found {
		return fmt.Errorf("%w: ifIndex %d", ErrNoSuchName, index)
	}
	d.tree.Changes().Publish(Change{Kind: ChangeRow, Table: OIDIfEntry, Index: oid.OID{index}})
	return nil
}

// ConnID identifies a TCP connection by its tcpConnTable index.
type ConnID struct {
	LocalAddr [4]byte
	LocalPort uint16
	RemAddr   [4]byte
	RemPort   uint16
}

func (c ConnID) index() oid.OID {
	return oid.OID{
		uint32(c.LocalAddr[0]), uint32(c.LocalAddr[1]), uint32(c.LocalAddr[2]), uint32(c.LocalAddr[3]),
		uint32(c.LocalPort),
		uint32(c.RemAddr[0]), uint32(c.RemAddr[1]), uint32(c.RemAddr[2]), uint32(c.RemAddr[3]),
		uint32(c.RemPort),
	}
}

// OpenConn inserts an established connection into tcpConnTable.
func (d *Device) OpenConn(c ConnID) {
	d.tcpConns.Upsert(c.index(), map[uint32]Value{
		TCPConnState:     Int(TCPStateEstablished),
		TCPConnLocalAddr: IP(c.LocalAddr[0], c.LocalAddr[1], c.LocalAddr[2], c.LocalAddr[3]),
		TCPConnLocalPort: Int(int64(c.LocalPort)),
		TCPConnRemAddr:   IP(c.RemAddr[0], c.RemAddr[1], c.RemAddr[2], c.RemAddr[3]),
		TCPConnRemPort:   Int(int64(c.RemPort)),
	})
	d.mu.Lock()
	d.opens++
	d.mu.Unlock()
}

// CloseConn removes a connection from tcpConnTable.
func (d *Device) CloseConn(c ConnID) bool { return d.tcpConns.Delete(c.index()) }

// AddRoute installs a row in ipRouteTable keyed by destination.
func (d *Device) AddRoute(dest [4]byte, ifIndex uint32, metric int64, nextHop [4]byte) {
	idx := oid.OID{uint32(dest[0]), uint32(dest[1]), uint32(dest[2]), uint32(dest[3])}
	d.ipRoutes.Upsert(idx, map[uint32]Value{
		IPRouteDest:    IP(dest[0], dest[1], dest[2], dest[3]),
		IPRouteIfIndex: Int(int64(ifIndex)),
		IPRouteMetric1: Int(metric),
		IPRouteNextHop: IP(nextHop[0], nextHop[1], nextHop[2], nextHop[3]),
		IPRouteType:    Int(4), // indirect
		IPRouteProto:   Int(8), // rip
		IPRouteAge:     Int(0),
	})
}

// DelRoute removes the route to dest, reporting whether it existed.
func (d *Device) DelRoute(dest [4]byte) bool {
	idx := oid.OID{uint32(dest[0]), uint32(dest[1]), uint32(dest[2]), uint32(dest[3])}
	return d.ipRoutes.Delete(idx)
}

// ifTableHandler adapts the device's interface slice to the Table
// handler protocol without materializing rows.
type ifTableHandler struct {
	d *Device
}

var ifColumns = []uint32{
	IfIndex, IfDescr, IfType, IfMtu, IfSpeed, IfPhysAddress,
	IfAdminStatus, IfOperStatus, IfLastChange, IfInOctets, IfInUcastPkts,
	IfInNUcast, IfInDiscards, IfInErrors, IfOutOctets, IfOutUcast, IfOutQLen,
}

func (h *ifTableHandler) cell(col uint32, index oid.OID) (Value, bool) {
	if len(index) != 1 {
		return Value{}, false
	}
	// Interface membership is fixed after construction; only the
	// counter fields need the device lock (taken in cellOf).
	for _, c := range h.d.ifaces {
		if c.index == index[0] {
			return h.cellOf(c, col)
		}
	}
	return Value{}, false
}

// cellOf returns column col of interface ifc.
func (h *ifTableHandler) cellOf(ifc *deviceIface, col uint32) (Value, bool) {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	switch col {
	case IfIndex:
		return Int(int64(ifc.index)), true
	case IfDescr:
		return Str(ifc.descr), true
	case IfType:
		return Int(6), true // ethernetCsmacd
	case IfMtu:
		return Int(1500), true
	case IfSpeed:
		return Gauge32(ifc.speed), true
	case IfPhysAddress:
		return Octets([]byte{0x02, 0x00, 0x00, 0x00, 0x00, byte(ifc.index)}), true
	case IfAdminStatus:
		return Int(IfStatusUp), true
	case IfOperStatus:
		return Int(int64(ifc.oper)), true
	case IfLastChange:
		return TimeTicks(ifc.lastChange), true
	case IfInOctets:
		return Counter32(ifc.inOctets), true
	case IfInUcastPkts:
		return Counter32(ifc.inUcast), true
	case IfInNUcast:
		return Counter32(ifc.inNUcast), true
	case IfInDiscards:
		return Counter32(0), true
	case IfInErrors:
		return Counter32(ifc.inErrors), true
	case IfOutOctets:
		return Counter32(ifc.outOctets), true
	case IfOutUcast:
		return Counter32(ifc.outUcast), true
	case IfOutQLen:
		return Gauge32(0), true
	default:
		return Value{}, false
	}
}

// GetRel implements Handler.
func (h *ifTableHandler) GetRel(rel oid.OID) (Value, bool) {
	if len(rel) != 2 {
		return Value{}, false
	}
	return h.cell(rel[0], rel[1:])
}

// NextRel implements Handler.
func (h *ifTableHandler) NextRel(rel oid.OID) (oid.OID, Value, bool) {
	next, v, ok := h.AppendNextRel(nil, rel)
	return next, v, ok
}

// colStart reports whether column col can hold a successor of rel and,
// when rel points inside the column, the exclusive interface-index
// lower bound. Row indexes are single-arc, so "index strictly greater
// than rel[1:]" reduces to a plain arc comparison.
func colStart(col uint32, rel oid.OID) (after uint32, bounded, ok bool) {
	if len(rel) == 0 || rel[0] < col {
		return 0, false, true
	}
	if rel[0] > col {
		return 0, false, false
	}
	if len(rel) >= 2 {
		return rel[1], true, true
	}
	return 0, false, true
}

// AppendNextRel implements AppendNexter.
func (h *ifTableHandler) AppendNextRel(dst oid.OID, rel oid.OID) (oid.OID, Value, bool) {
	for _, col := range ifColumns {
		after, bounded, ok := colStart(col, rel)
		if !ok {
			continue
		}
		for _, ifc := range h.d.ifaces {
			if bounded && ifc.index <= after {
				continue
			}
			if v, ok := h.cellOf(ifc, col); ok {
				return append(append(dst, col), ifc.index), v, true
			}
		}
	}
	return nil, Value{}, false
}

// NextRelN implements BulkHandler.
func (h *ifTableHandler) NextRelN(rel oid.OID, max int, visit func(rel oid.OID, v Value) bool) int {
	var buf oid.OID
	n := 0
	for _, col := range ifColumns {
		after, bounded, ok := colStart(col, rel)
		if !ok {
			continue
		}
		for _, ifc := range h.d.ifaces {
			if bounded && ifc.index <= after {
				continue
			}
			v, ok := h.cellOf(ifc, col)
			if !ok {
				continue
			}
			buf = append(buf[:0], col, ifc.index)
			n++
			if !visit(buf, v) {
				return n
			}
			if max > 0 && n >= max {
				return n
			}
		}
	}
	return n
}
