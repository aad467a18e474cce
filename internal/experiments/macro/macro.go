// Package macro is the macro-scale scenario harness: one simulated
// management domain exercising health functions, the intrusion
// detector, continuously-materialized VDL views, and the federation
// rollup *concurrently*, at up to a thousand stations.
//
// Where the numbered experiments (internal/experiments) isolate one
// mechanism each, this harness composes them the way a production
// deployment would and reports the composite economics:
//
//   - every station runs a delegated health agent (report-on-exception)
//     and the tcpConnTable intrusion watcher as real DPL bytecode over
//     its own MIB;
//   - alarm and detection reports feed a federation rollup at the
//     manager, whose change events drive incremental refresh of a
//     fleet-wide VDL view;
//   - a gateway station keeps two more views (a join over
//     ipRouteTable⋈ifTable and a selection over tcpConnTable)
//     continuously materialized through mib.Tree change capture,
//     folding O(delta) work per write instead of rescanning;
//   - a second run of the identical workload is managed centrally:
//     the manager polls every station's health counters and connection
//     table over SNMP each period.
//
// The emitted metrics — view staleness p99 in virtual time, management
// bytes under delegation vs. centralized polling, and deltas folded per
// virtual second — form the BENCH_macro.json trajectory tracked across
// revisions.
package macro

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"mbd/internal/federation"
	"mbd/internal/health"
	"mbd/internal/intrusion"
	"mbd/internal/mib"
	"mbd/internal/netsim"
	"mbd/internal/oid"
	"mbd/internal/snmp"
	"mbd/internal/vdl"
)

// Config parameterizes one macro run. The zero value is the full-scale
// scenario (1000 stations, 4 virtual minutes).
type Config struct {
	// Stations is the number of managed network elements (default 1000).
	Stations int
	// Horizon is the simulated interval (default 4 minutes).
	Horizon time.Duration
	// EvalEvery is the health evaluation / centralized poll period
	// (default 10 s).
	EvalEvery time.Duration
	// SampleEvery is the intrusion watcher sampling period (default 5 s).
	SampleEvery time.Duration
	// ViewEvery is the manager's view refresh period (default 1 s).
	ViewEvery time.Duration
	// SessionsPerStation sizes the TCP connection replay (default 8).
	SessionsPerStation int
	// RouteFlapEvery is the per-station route flap period (default 30 s).
	RouteFlapEvery time.Duration
	Seed           int64
}

func (c *Config) defaults() {
	if c.Stations <= 0 {
		c.Stations = 1000
	}
	if c.Horizon <= 0 {
		c.Horizon = 4 * time.Minute
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 10 * time.Second
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 5 * time.Second
	}
	if c.ViewEvery <= 0 {
		c.ViewEvery = time.Second
	}
	if c.SessionsPerStation <= 0 {
		c.SessionsPerStation = 8
	}
	if c.RouteFlapEvery <= 0 {
		c.RouteFlapEvery = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Result is one trajectory point.
type Result struct {
	Stations  int   `json:"stations"`
	HorizonMS int64 `json:"horizon_ms"`
	WallMS    int64 `json:"wall_ms"`

	// Incremental view maintenance (gateway + fleet views combined).
	DeltasFolded   uint64  `json:"deltas_folded"`
	DeltasPerVSec  float64 `json:"deltas_per_vsec"`
	ViewRecomputes uint64  `json:"view_recomputes"`
	ChangesLost    uint64  `json:"changes_lost"`
	ViewRefreshes  int     `json:"view_refreshes"`

	// Freshness: virtual-time lag between a base mutation (or rollup
	// arrival) and the first refreshed query that reflects it.
	StalenessP50MS float64 `json:"view_staleness_p50_ms"`
	StalenessP99MS float64 `json:"view_staleness_p99_ms"`

	// Management-network economics for the same information need.
	DelegatedBytes   uint64  `json:"delegated_bytes"`
	CentralizedBytes uint64  `json:"centralized_bytes"`
	ByteGain         float64 `json:"byte_gain"`
	CentralCycleMS   float64 `json:"central_cycle_ms"`

	// Scenario activity.
	HealthAlarms        int `json:"health_alarms"`
	IntrusionDetections int `json:"intrusion_detections"`
	FleetRollupKeys     int `json:"fleet_rollup_keys"`
}

// replay schedules the deterministic per-station workload — connection
// churn (intrusion.Generate, so a fraction matches the detection rule),
// route flaps, and load episodes — onto sim. onMutate, when non-nil, is
// invoked at each mutation's virtual time (used to timestamp
// gateway-tree changes for staleness sampling).
func replay(sim *netsim.Sim, st *netsim.Station, i int, cfg Config, onMutate func()) {
	note := func(fn func()) func() {
		if onMutate == nil {
			return fn
		}
		return func() { fn(); onMutate() }
	}

	// Two stable routes plus one flapping route per station.
	dst := byte(1 + i%250)
	st.Dev.AddRoute([4]byte{10, 1, dst, 0}, 1, 1, [4]byte{10, 0, 0, 254})
	st.Dev.AddRoute([4]byte{10, 2, dst, 0}, 2, 3, [4]byte{10, 0, 0, 253})
	flap := [4]byte{172, 16, dst, 0}
	up := false
	var tick func(at time.Duration)
	tick = func(at time.Duration) {
		if at >= cfg.Horizon {
			return
		}
		sim.At(at, note(func() {
			if up {
				st.Dev.DelRoute(flap)
			} else {
				st.Dev.AddRoute(flap, 1+uint32(i%2), 5, [4]byte{10, 0, 0, 252})
			}
			up = !up
			tick(at + cfg.RouteFlapEvery)
		}))
	}
	// Stagger flaps so the domain doesn't mutate in lockstep.
	tick(time.Duration(i%17) * cfg.RouteFlapEvery / 17)

	// Connection replay: sessions open and close at their labeled times.
	sessions := intrusion.Generate(intrusion.WorkloadConfig{
		Seed:    cfg.Seed*100_000 + int64(i),
		Horizon: cfg.Horizon, Sessions: cfg.SessionsPerStation,
	})
	for _, s := range sessions {
		conn := s.Conn
		sim.At(s.Open, note(func() { st.Dev.OpenConn(conn) }))
		sim.At(s.Close, note(func() { st.Dev.CloseConn(conn) }))
	}

	// Load: nominal everywhere, a broadcast storm on every third
	// station through the middle fifth of the run (E2's episode shape).
	if i%3 == 0 {
		sim.At(cfg.Horizon*2/5, func() {
			st.Dev.SetLoad(mib.LoadProfile{Utilization: 0.8, BroadcastFraction: 0.45, ErrorRate: 0.02, CollisionRate: 0.1})
		})
		sim.At(cfg.Horizon*3/5, func() {
			st.Dev.SetLoad(mib.LoadProfile{Utilization: 0.3, BroadcastFraction: 0.04, ErrorRate: 0.003, CollisionRate: 0.02})
		})
	}
}

func makeStations(sim *netsim.Sim, cfg Config) ([]*netsim.Station, error) {
	stations := make([]*netsim.Station, cfg.Stations)
	for i := range stations {
		st, err := netsim.NewStation(fmt.Sprintf("st-%04d", i), cfg.Seed+int64(i), netsim.LAN(), "public")
		if err != nil {
			return nil, err
		}
		st.Dev.SetLoad(mib.LoadProfile{Utilization: 0.3, BroadcastFraction: 0.04, ErrorRate: 0.003, CollisionRate: 0.02})
		stations[i] = st
	}
	return stations, nil
}

// Run executes the scenario twice — delegated then centralized — over
// the identical replayed workload and returns the composite point.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	wall := time.Now()
	res := &Result{Stations: cfg.Stations, HorizonMS: cfg.Horizon.Milliseconds()}

	if err := runDelegated(cfg, res); err != nil {
		return nil, err
	}
	if err := runCentralized(cfg, res); err != nil {
		return nil, err
	}
	if res.DelegatedBytes > 0 {
		res.ByteGain = float64(res.CentralizedBytes) / float64(res.DelegatedBytes)
	}
	res.WallMS = time.Since(wall).Milliseconds()
	return res, nil
}

func runDelegated(cfg Config, res *Result) error {
	sim := netsim.NewSim()
	stations, err := makeStations(sim, cfg)
	if err != nil {
		return err
	}

	// Staleness bookkeeping: mutation timestamps pending a view refresh.
	var pending []time.Duration
	var samples []time.Duration
	notePending := func() { pending = append(pending, sim.Now()) }

	for i, st := range stations {
		var onMutate func()
		if i == 0 {
			onMutate = notePending // gateway tree feeds the live views
		}
		replay(sim, st, i, cfg, onMutate)
	}

	// Manager-side federation rollup over all stations' reports.
	mgrTree := &mib.Tree{}
	rollup := federation.NewRollup(federation.Sum())
	if err := federation.MountRollup(mgrTree, rollup, federation.OIDFederation); err != nil {
		return err
	}

	// Three continuously-materialized views: two at the gateway
	// station's agent, one fleet-wide over the rollup subtree.
	gw := vdl.NewMCVA(stations[0].Dev.Tree(), vdl.MIB2())
	defer gw.Close()
	if _, err := gw.DefineAll(`view gwRoutes {
  from ipRouteTable as r join ifTable as i on r:ipRouteIfIndex == i:ifIndex;
  select r:ipRouteDest, i:ifDescr, r:ipRouteMetric1;
  where i:ifOperStatus == 1;
}
view gwConns {
  from tcpConnTable;
  select tcpConnLocalPort, tcpConnRemAddress;
  where tcpConnLocalPort < 1024;
}`); err != nil {
		return err
	}
	fleet := vdl.NewMCVA(mgrTree, vdl.MIB2().AddFederation())
	defer fleet.Close()
	if _, err := fleet.Define(`view fleet {
  from fedRollupTable;
  select count() as keys, sum(fedRollupMembers) as reporters;
}`); err != nil {
		return err
	}

	// Delegate the health function and the intrusion watcher to every
	// station; reports roll up at the manager.
	var tr netsim.Traffic
	healthSrc := health.AgentSource(health.DefaultIndex(), false)
	alarmsBy := make([]int, cfg.Stations)
	detectsBy := make([]int, cfg.Stations)
	for i, st := range stations {
		i, st := i, st
		ses := netsim.NewSession(sim, st, &tr)
		name := st.Dev.Name()

		ha, err := netsim.NewAgent(sim, st, ses, healthSrc)
		if err != nil {
			return err
		}
		ha.OnReport = func(string) {
			res.HealthAlarms++
			alarmsBy[i]++
			if _, changed := rollup.Report(name, "alarms", strconv.Itoa(alarmsBy[i]), sim.Now().Milliseconds()); changed {
				notePending()
			}
		}
		wa, err := netsim.NewAgent(sim, st, ses, intrusion.WatcherSource)
		if err != nil {
			return err
		}
		wa.OnReport = func(string) {
			res.IntrusionDetections++
			detectsBy[i]++
			if _, changed := rollup.Report(name, "suspects", strconv.Itoa(detectsBy[i]), sim.Now().Milliseconds()); changed {
				notePending()
			}
		}

		// Phase offsets desynchronize the fleet: real stations are not
		// delegated in lockstep, and a phase-locked fleet would bias the
		// staleness distribution toward a single lag value.
		healthPhase := time.Duration(i*997%int(cfg.EvalEvery.Milliseconds())) * time.Millisecond
		samplePhase := time.Duration(i*613%int(cfg.SampleEvery.Milliseconds())) * time.Millisecond
		ses.Delegate("health", healthSrc, func() {
			ses.Instantiate("health", "eval", func() {
				var tick func(at time.Duration)
				tick = func(at time.Duration) {
					if at >= cfg.Horizon {
						return
					}
					sim.At(at, func() { _, _ = ha.Invoke("eval"); tick(at + cfg.EvalEvery) })
				}
				tick(sim.Now() + healthPhase)
			})
		})
		ses.Delegate("watcher", intrusion.WatcherSource, func() {
			ses.Instantiate("watcher", "sample", func() {
				var tick func(at time.Duration)
				tick = func(at time.Duration) {
					if at >= cfg.Horizon {
						return
					}
					sim.At(at, func() { _, _ = wa.Invoke("sample"); tick(at + cfg.SampleEvery) })
				}
				tick(sim.Now() + samplePhase)
			})
		})
	}

	// Manager view refresh: every ViewEvery, query the three standing
	// views (folding whatever deltas accumulated) and convert pending
	// mutation timestamps into staleness samples.
	var refresh func(at time.Duration)
	refresh = func(at time.Duration) {
		if at > cfg.Horizon {
			return
		}
		sim.At(at, func() {
			stations[0].Sync(sim)
			for _, v := range []string{"gwRoutes", "gwConns"} {
				if _, err := gw.Query(v); err != nil {
					panic("macro: " + err.Error())
				}
			}
			fr, err := fleet.Query("fleet")
			if err != nil {
				panic("macro: " + err.Error())
			}
			if len(fr.Rows) == 1 && len(fr.Rows[0].Cells) > 0 {
				if n, ok := fr.Rows[0].Cells[0].(int64); ok {
					res.FleetRollupKeys = int(n)
				}
			}
			res.ViewRefreshes++
			now := sim.Now()
			for _, ts := range pending {
				samples = append(samples, now-ts)
			}
			pending = pending[:0]
			refresh(at + cfg.ViewEvery)
		})
	}
	refresh(cfg.ViewEvery)

	sim.Run(cfg.Horizon + time.Minute)

	gs, fs := gw.Stats(), fleet.Stats()
	res.DeltasFolded = gs.DeltasFolded + fs.DeltasFolded
	res.ViewRecomputes = gs.Recomputes + fs.Recomputes
	res.ChangesLost = gs.ChangesLost + fs.ChangesLost
	if secs := cfg.Horizon.Seconds(); secs > 0 {
		res.DeltasPerVSec = float64(res.DeltasFolded) / secs
	}
	res.DelegatedBytes = tr.Bytes()
	res.StalenessP50MS = percentileMS(samples, 0.50)
	res.StalenessP99MS = percentileMS(samples, 0.99)
	return nil
}

// runCentralized replays the identical workload with no delegation: the
// manager polls each station's five health counters (one PDU) and walks
// the tcpConnState column (whose instance OIDs carry the endpoints the
// intrusion rule needs) every EvalEvery, sequentially — the 1995
// platform's information-equivalent cost.
func runCentralized(cfg Config, res *Result) error {
	sim := netsim.NewSim()
	stations, err := makeStations(sim, cfg)
	if err != nil {
		return err
	}
	for i, st := range stations {
		replay(sim, st, i, cfg, nil)
	}
	counters := []oid.OID{
		mib.OIDEnetRxOk.Append(0), mib.OIDEnetColl.Append(0),
		mib.OIDEnetRxBcast.Append(0), mib.OIDEnetRxPkts.Append(0), mib.OIDEnetRxErrs.Append(0),
	}
	connCol := oid.MustParse("1.3.6.1.2.1.6.13.1.1")

	var tr netsim.Traffic
	var cycles []time.Duration
	var pollCycle func(start time.Duration)
	pollCycle = func(start time.Duration) {
		i := 0
		var next func()
		next = func() {
			if i >= len(stations) {
				cycles = append(cycles, sim.Now()-start)
				ns := start + cfg.EvalEvery
				if ns < sim.Now() {
					ns = sim.Now()
				}
				if ns < cfg.Horizon {
					sim.At(ns, func() { pollCycle(ns) })
				}
				return
			}
			st := stations[i]
			i++
			st.Get(sim, "public", &tr, counters, func([]snmp.VarBind) {
				st.Walk(sim, "public", &tr, connCol, func([]snmp.VarBind) { next() })
			})
		}
		next()
	}
	sim.At(0, func() { pollCycle(0) })
	sim.Run(cfg.Horizon + time.Minute)

	res.CentralizedBytes = tr.Bytes()
	if len(cycles) > 0 {
		var sum time.Duration
		for _, c := range cycles {
			sum += c
		}
		res.CentralCycleMS = float64((sum / time.Duration(len(cycles))).Microseconds()) / 1000
	}
	return nil
}

func percentileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx].Microseconds()) / 1000
}
