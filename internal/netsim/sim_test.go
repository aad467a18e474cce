package netsim

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"mbd/internal/mib"
	"mbd/internal/oid"
	"mbd/internal/snmp"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() {
		order = append(order, 2)
		s.After(5*time.Millisecond, func() { order = append(order, 25) })
	})
	n := s.Run(time.Second)
	if n != 4 {
		t.Fatalf("events = %d", n)
	}
	want := []int{1, 2, 25, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Now() != time.Second {
		t.Fatalf("clock = %v, want horizon", s.Now())
	}
}

func TestSimFIFOAmongSimultaneous(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run(time.Second)
	for i := range order {
		if order[i] != i {
			t.Fatalf("simultaneous events reordered: %v", order)
		}
	}
}

func TestSimHorizonStopsEarly(t *testing.T) {
	s := NewSim()
	fired := false
	s.After(2*time.Second, func() { fired = true })
	s.Run(time.Second)
	if fired {
		t.Fatal("event past horizon fired")
	}
	if s.Pending() != 1 {
		t.Fatal("pending event lost")
	}
	s.Run(3 * time.Second)
	if !fired {
		t.Fatal("event never fired")
	}
}

// Property: random schedules always execute in non-decreasing time order.
func TestSimRandomSchedulesOrdered(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	s := NewSim()
	var last time.Duration
	ok := true
	for i := 0; i < 1000; i++ {
		d := time.Duration(r.Intn(1000)) * time.Millisecond
		s.After(d, func() {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
			if r.Intn(4) == 0 {
				s.After(time.Duration(r.Intn(100))*time.Millisecond, func() {})
			}
		})
	}
	s.Run(time.Hour)
	if !ok {
		t.Fatal("events executed out of order")
	}
	if s.Pending() != 0 {
		t.Fatal("events left behind")
	}
}

func TestLinkDelay(t *testing.T) {
	l := Link{OneWay: 10 * time.Millisecond, BitsPerSec: 8000} // 1 byte/ms
	if got := l.Delay(100); got != 10*time.Millisecond+100*time.Millisecond {
		t.Fatalf("delay = %v", got)
	}
	if got := (Link{}).Delay(1000000); got != 0 {
		t.Fatalf("infinite link delay = %v", got)
	}
	if LAN().RTT() != time.Millisecond {
		t.Fatalf("LAN RTT = %v", LAN().RTT())
	}
	if WAN(596*time.Millisecond).RTT() != 596*time.Millisecond {
		t.Fatal("WAN RTT wrong")
	}
}

func newTestStation(t *testing.T, link Link) *Station {
	t.Helper()
	st, err := NewStation("sim-dev", 7, link, "public")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStationGetTiming(t *testing.T) {
	sim := NewSim()
	st := newTestStation(t, Link{OneWay: 100 * time.Millisecond}) // no serialization
	st.Proc = 5 * time.Millisecond
	var tr Traffic
	var gotAt time.Duration
	var sysName string
	st.Get(sim, "public", &tr, []oid.OID{mib.OIDSysName.Append(0)}, func(vbs []snmp.VarBind) {
		gotAt = sim.Now()
		if vbs != nil {
			sysName = string(vbs[0].Value.Bytes)
		}
	})
	sim.Run(time.Minute)
	if sysName != "sim-dev" {
		t.Fatalf("sysName = %q", sysName)
	}
	if gotAt != 205*time.Millisecond {
		t.Fatalf("arrival = %v, want 205ms (2×100ms + 5ms proc)", gotAt)
	}
	if tr.Requests != 1 || tr.Responses != 1 || tr.ReqBytes == 0 || tr.RespBytes == 0 {
		t.Fatalf("traffic = %+v", tr)
	}
}

func TestStationBadCommunityDrops(t *testing.T) {
	sim := NewSim()
	st := newTestStation(t, LAN())
	var tr Traffic
	delivered := false
	var result []snmp.VarBind
	st.Get(sim, "wrong", &tr, []oid.OID{mib.OIDSysName.Append(0)}, func(vbs []snmp.VarBind) {
		delivered = true
		result = vbs
	})
	sim.Run(time.Minute)
	if !delivered || result != nil {
		t.Fatalf("drop handling: delivered=%v result=%v", delivered, result)
	}
	if tr.Responses != 0 {
		t.Fatal("dropped request produced a response")
	}
}

func TestStationSyncAdvancesDevice(t *testing.T) {
	sim := NewSim()
	st := newTestStation(t, LAN())
	st.Dev.SetLoad(mib.LoadProfile{Utilization: 0.5})
	var tr Traffic
	var upAt1, upAt2 uint64
	st.Get(sim, "public", &tr, []oid.OID{mib.OIDSysUpTime.Append(0)}, func(vbs []snmp.VarBind) {
		upAt1 = vbs[0].Value.Uint
	})
	sim.After(10*time.Second, func() {
		st.Get(sim, "public", &tr, []oid.OID{mib.OIDSysUpTime.Append(0)}, func(vbs []snmp.VarBind) {
			upAt2 = vbs[0].Value.Uint
		})
	})
	sim.Run(time.Minute)
	if upAt2 <= upAt1 || upAt2 < 1000 {
		t.Fatalf("device time did not track sim time: %d → %d", upAt1, upAt2)
	}
}

func TestStationWalk(t *testing.T) {
	sim := NewSim()
	st := newTestStation(t, LAN())
	var tr Traffic
	var got []snmp.VarBind
	st.Walk(sim, "public", &tr, oid.MustParse("1.3.6.1.2.1.1"), func(vbs []snmp.VarBind) {
		got = vbs
	})
	sim.Run(time.Minute)
	if len(got) != 7 {
		t.Fatalf("system group walk = %d instances", len(got))
	}
	// A walk of n instances needs n+1 GetNext exchanges.
	if tr.Requests != 8 {
		t.Fatalf("requests = %d, want 8", tr.Requests)
	}
}

func TestSessionDelegationCosts(t *testing.T) {
	sim := NewSim()
	st := newTestStation(t, Link{OneWay: 50 * time.Millisecond})
	st.Proc = 0
	var tr Traffic
	ses := NewSession(sim, st, &tr)
	source := strings.Repeat("// padding\n", 10) + "func main() { report(1); }"
	var delegatedAt, instantiatedAt time.Duration
	ses.Delegate("h", source, func() {
		delegatedAt = sim.Now()
		ses.Instantiate("h", "main", func() { instantiatedAt = sim.Now() })
	})
	sim.Run(time.Minute)
	if delegatedAt != 100*time.Millisecond {
		t.Fatalf("delegate RTT = %v", delegatedAt)
	}
	if instantiatedAt != 200*time.Millisecond {
		t.Fatalf("instantiate completed at %v", instantiatedAt)
	}
	if tr.ReqBytes < uint64(len(source)) {
		t.Fatalf("delegation bytes %d do not cover source size %d", tr.ReqBytes, len(source))
	}
}

func TestDelegatedAgentRunsRealVM(t *testing.T) {
	sim := NewSim()
	st := newTestStation(t, LAN())
	st.Dev.SetLoad(mib.LoadProfile{Utilization: 0.4})
	var tr Traffic
	ses := NewSession(sim, st, &tr)
	src := `
var prev = 0;
func eval(dtSec) {
	var cur = mibGet("1.3.6.1.4.1.45.1.3.2.1.0");
	var u = float(cur - prev) / (float(dtSec) * 10000000.0);
	prev = cur;
	if (u > 0.3) { report(sprintf("util=%f", u)); }
	return u;
}`
	agent, err := NewAgent(sim, st, ses, src)
	if err != nil {
		t.Fatal(err)
	}
	var reports []string
	agent.OnReport = func(p string) { reports = append(reports, p) }

	// Evaluate every 10 virtual seconds for 5 cycles.
	var lastU any
	for i := 1; i <= 5; i++ {
		sim.At(time.Duration(i)*10*time.Second, func() {
			v, err := agent.Invoke("eval", int64(10))
			if err != nil {
				t.Errorf("eval: %v", err)
			}
			lastU = v
		})
	}
	sim.Run(time.Minute)
	u, ok := lastU.(float64)
	if !ok || u < 0.35 || u > 0.45 {
		t.Fatalf("delegated utilization = %v, want ≈0.4", lastU)
	}
	// First eval sees the whole history since boot (prev=0) and over-
	// reports; subsequent evals are ≈0.4 > 0.3 so all 5 report.
	if len(reports) != 5 {
		t.Fatalf("reports = %v", reports)
	}
	if tr.RespBytes == 0 {
		t.Fatal("report bytes not accounted")
	}
	if agent.Steps() == 0 {
		t.Fatal("VM executed no instructions")
	}
}

func TestAgentTranslatorStillApplies(t *testing.T) {
	sim := NewSim()
	st := newTestStation(t, LAN())
	var tr Traffic
	ses := NewSession(sim, st, &tr)
	if _, err := NewAgent(sim, st, ses, `func main() { shell("ls"); }`); err == nil {
		t.Fatal("unbound call accepted in simulated agent")
	}
}
