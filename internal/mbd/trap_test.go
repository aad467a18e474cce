package mbd

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mbd/internal/mib"
	"mbd/internal/snmp"
)

// trapCollector is a trap sink capturing decoded traps.
type trapCollector struct {
	mu    sync.Mutex
	traps []*snmp.Message
	fail  error
}

func (c *trapCollector) Write(pkt []byte) (int, error) {
	if c.fail != nil {
		return 0, c.fail
	}
	m, err := snmp.Decode(pkt)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.traps = append(c.traps, m)
	c.mu.Unlock()
	return len(pkt), nil
}

func (c *trapCollector) all() []*snmp.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*snmp.Message, len(c.traps))
	copy(out, c.traps)
	return out
}

func TestDelegatedProgramEmitsRealTrap(t *testing.T) {
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "trap-dev", Addr: [4]byte{10, 1, 2, 3}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	dev.Advance(30 * time.Second)
	s := newServer(t, Config{Device: dev})
	sink := &trapCollector{}
	s.SetTrapSink(sink)

	got := runAgent(t, s, "alarmer", `
func main() {
	trap(42, "segment melting");
	trap(7, "second condition");
	return "sent";
}`)
	if got != "sent" {
		t.Fatalf("agent = %v", got)
	}
	traps := sink.all()
	if len(traps) != 2 {
		t.Fatalf("traps = %d, want 2", len(traps))
	}
	tr := traps[0]
	if tr.Type != snmp.PDUTrap || tr.Trap == nil {
		t.Fatalf("not a trap: %+v", tr)
	}
	if tr.Trap.SpecificTrap != 42 || tr.Trap.GenericTrap != snmp.TrapEnterpriseSpecific {
		t.Fatalf("trap codes = %+v", tr.Trap)
	}
	if tr.Trap.AgentAddr != [4]byte{10, 1, 2, 3} {
		t.Fatalf("agent addr = %v", tr.Trap.AgentAddr)
	}
	if tr.Trap.Timestamp != 3000 { // 30 s of uptime in ticks
		t.Fatalf("timestamp = %d", tr.Trap.Timestamp)
	}
	if !tr.Trap.Enterprise.Equal(mib.OIDPrivateEnet) {
		t.Fatalf("enterprise = %v", tr.Trap.Enterprise)
	}
	if string(tr.VarBinds[0].Value.Bytes) != "segment melting" {
		t.Fatalf("payload = %v", tr.VarBinds[0].Value)
	}
}

func TestTrapWithoutSinkFailsInstance(t *testing.T) {
	s := newServer(t, Config{})
	if err := s.Process().Delegate("mgr", "t", "dpl", `func main() { trap(1, "x"); }`); err != nil {
		t.Fatal(err)
	}
	d, err := s.Process().Instantiate("mgr", "t", "main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(t.Context()); err == nil || !strings.Contains(err.Error(), "no trap sink") {
		t.Fatalf("err = %v", err)
	}
}

func TestTrapSinkFailurePropagates(t *testing.T) {
	s := newServer(t, Config{})
	s.SetTrapSink(&trapCollector{fail: errors.New("trap daemon down")})
	if err := s.Process().Delegate("mgr", "t", "dpl", `func main() { trap(1, "x"); }`); err != nil {
		t.Fatal(err)
	}
	d, err := s.Process().Instantiate("mgr", "t", "main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(t.Context()); err == nil || !strings.Contains(err.Error(), "trap daemon down") {
		t.Fatalf("err = %v", err)
	}
}

func TestTrapNonStringPayloadRendered(t *testing.T) {
	s := newServer(t, Config{})
	sink := &trapCollector{}
	s.SetTrapSink(sink)
	runAgent(t, s, "t2", `func main() { trap(3, [1, 2]); return nil; }`)
	traps := sink.all()
	if len(traps) != 1 || string(traps[0].VarBinds[0].Value.Bytes) != "[1, 2]" {
		t.Fatalf("traps = %+v", traps)
	}
}
