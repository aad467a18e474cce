package snmp

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"mbd/internal/mib"
	"mbd/internal/oid"
)

// TestServeAllocs locks in the allocation-free packet path: after
// warm-up (pool primed, decoder arena and response buffer grown),
// serving Get and GetNext requests must not allocate at all.
func TestServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "alloc", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	agent := NewAgent(dev.Tree(), "public")

	encode := func(typ PDUType) []byte {
		msg := &Message{
			Community: "public", Type: typ, RequestID: 7,
			VarBinds: []VarBind{
				{Name: mib.OIDSysUpTime.Append(0), Value: mib.Null()},
				{Name: mib.OIDIfEntry.Append(mib.IfInOctets, 1), Value: mib.Null()},
			},
		}
		pkt, err := msg.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}
	get := encode(PDUGetRequest)
	getNext := encode(PDUGetNextRequest)

	var out []byte
	serve := func(pkt []byte) {
		resp := agent.HandlePacketAppend(out[:0], pkt)
		if resp == nil {
			t.Fatal("request dropped")
		}
		out = resp
	}
	for i := 0; i < 16; i++ { // warm up pooled state and buffers
		serve(get)
		serve(getNext)
	}
	if n := testing.AllocsPerRun(100, func() { serve(get) }); n != 0 {
		t.Errorf("Get serve allocates %v times per packet, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { serve(getNext) }); n != 0 {
		t.Errorf("GetNext serve allocates %v times per packet, want 0", n)
	}
}

// serveLoopback runs agent.ServeUDP on a loopback socket and returns
// the address it listens on.
func serveLoopback(t *testing.T, agent *Agent) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- agent.ServeUDP(ctx, pc) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeUDP: %v", err)
		}
	})
	return pc.LocalAddr().String()
}

// getRequest encodes a one-variable Get.
func getRequest(t *testing.T, id int32, name oid.OID) []byte {
	t.Helper()
	pkt, err := (&Message{Community: "public", Type: PDUGetRequest, RequestID: id,
		VarBinds: []VarBind{{Name: name, Value: mib.Null()}}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// closerOnly is a PacketConn that is not a UDP socket.
type closerOnly struct{ net.PacketConn }

func (closerOnly) Close() error { return nil }

func TestServeUDPRefusesNonUDPConn(t *testing.T) {
	_, agent := testTreeAndAgent(t)
	if err := agent.ServeUDP(context.Background(), closerOnly{}); err == nil {
		t.Fatal("ServeUDP served a PacketConn that is not a *net.UDPConn")
	}
}

// TestServeUDPSteadyStateMallocs drives 1,000 Get exchanges through a
// client that itself allocates nothing (fixed request, fixed receive
// buffer, connected socket), so every malloc the process makes is the
// agent's. The datagram loop must add none per packet: an agent that
// makes garbage per request has a footprint that follows its load.
func TestServeUDPSteadyStateMallocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	_, agent := testTreeAndAgent(t)
	conn, err := net.Dial("udp", serveLoopback(t, agent))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := getRequest(t, 9, mib.OIDSysName.Append(0))
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	exchange := func() {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // pools primed, response buffer grown
		exchange()
	}
	const exchanges = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < exchanges; i++ {
		exchange()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > exchanges/10 {
		t.Errorf("%d mallocs over %d exchanges, want a small constant", n, exchanges)
	}
}
