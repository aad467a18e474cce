package experiments

import (
	"fmt"
	"time"

	"mbd/internal/mib"
	"mbd/internal/netsim"
	"mbd/internal/snmp"
	"mbd/internal/vdl"
)

// E3Config parameterizes the large-table experiment.
type E3Config struct {
	// RowCounts sweeps the table size (default 100..5000 — "several
	// thousand video-on-demand subscribers").
	RowCounts []int
	// Selectivities are the match fractions of the query (default 1%,
	// 10%, 50%).
	Selectivities []float64
	// Link carries the management traffic (default WAN 254 ms — the
	// switch sits across the backbone).
	Link netsim.Link
	Seed int64
}

func (c *E3Config) defaults() {
	if len(c.RowCounts) == 0 {
		c.RowCounts = []int{100, 1000, 5000}
	}
	if len(c.Selectivities) == 0 {
		c.Selectivities = []float64{0.01, 0.10, 0.50}
	}
	if c.Link == (netsim.Link{}) {
		c.Link = netsim.WAN(254 * time.Millisecond)
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
}

// E3TableRetrieval reproduces the "moving large tables" scenario: "a
// future atm switch providing services to several thousand
// video-on-demand subscribers. The network management system must keep
// large tables of atm entities that need to be processed from time to
// time."
//
// The subscriber table is modeled with tcpConnTable rows (10-arc
// indices, five columns — the same shape as an ATM VC table). The
// manager needs the rows matching a predicate:
//
//	centralized: GetNext-walk the whole table over SNMP, filter at the
//	platform;
//	delegated:   install a VDL view with the predicate at the MbD
//	server (MCVA evaluates next to the MIB) and ship only matching
//	rows back as RDS frames.
func E3TableRetrieval(cfg E3Config) (*Table, error) {
	cfg.defaults()
	t := &Table{
		ID:      "E3",
		Title:   fmt.Sprintf("Large table retrieval over %v-RTT link: full SNMP walk vs delegated view", cfg.Link.RTT()),
		Headers: []string{"rows", "select%", "SNMP PDUs", "SNMP bytes", "SNMP time", "MbD bytes", "MbD time", "byte gain", "time gain"},
	}
	for _, rows := range cfg.RowCounts {
		for _, sel := range cfg.Selectivities {
			st, matching, err := makeSubscriberStation(cfg, rows, sel)
			if err != nil {
				return nil, err
			}

			// Centralized: walk all five columns of the table.
			sim := netsim.NewSim()
			var tr netsim.Traffic
			var walkDone time.Duration
			var got int
			st.Link = cfg.Link
			st.Walk(sim, "public", &tr, mib.OIDTCPConnEntry, func(vbs []snmp.VarBind) {
				got = len(vbs)
				walkDone = sim.Now()
			})
			sim.Run(24 * time.Hour)
			if got != rows*5 {
				return nil, fmt.Errorf("e3: walk returned %d cells, want %d", got, rows*5)
			}

			// Delegated: view evaluation at the server, matching rows
			// return as one RDS event frame per row (the MCVA streams
			// results), plus the one-time view installation.
			sim2 := netsim.NewSim()
			var tr2 netsim.Traffic
			ses := netsim.NewSession(sim2, st, &tr2)
			viewSrc := fmt.Sprintf(`view vod {
  from tcpConnTable;
  select tcpConnRemAddress, tcpConnRemPort, tcpConnState;
  where tcpConnRemPort < %d;
}`, 30000+int(sel*20000))
			mcva := vdl.NewMCVA(st.Dev.Tree(), vdl.MIB2())
			_, err = mcva.Define(viewSrc)
			var res *vdl.Result
			if err == nil {
				res, err = mcva.Query("vod")
			}
			mcva.Close() // the station outlives this selectivity; the rows do not need the agent
			if err != nil {
				return nil, err
			}
			if len(res.Rows) != matching {
				return nil, fmt.Errorf("e3: view matched %d rows, want %d", len(res.Rows), matching)
			}
			var viewDone time.Duration
			ses.Delegate("vod-view", viewSrc, func() {
				delivered := 0
				for _, r := range res.Rows {
					payload := fmt.Sprintf("%v|%v|%v", r.Cells[0], r.Cells[1], r.Cells[2])
					ses.Report("mcva#1", payload, func(string) {
						delivered++
						if delivered == len(res.Rows) {
							viewDone = sim2.Now()
						}
					})
				}
				if len(res.Rows) == 0 {
					viewDone = sim2.Now()
				}
			})
			sim2.Run(24 * time.Hour)

			t.AddRow(
				fmt.Sprintf("%d", rows),
				fmt.Sprintf("%.0f%%", sel*100),
				fmt.Sprintf("%d", tr.Requests+tr.Responses),
				fmtBytes(tr.Bytes()),
				walkDone.Round(time.Millisecond).String(),
				fmtBytes(tr2.Bytes()),
				viewDone.Round(time.Millisecond).String(),
				fmtRatio(float64(tr.Bytes()), float64(tr2.Bytes())),
				fmtRatio(float64(walkDone), float64(viewDone)),
			)
		}
	}
	t.AddNote("SNMP walk = sequential GetNext over 5 columns × N rows (each a full round trip); view rows stream back as pipelined one-way RDS frames")
	t.AddNote("matching rows are selected by remote-port range; the view predicate evaluates at the MCVA next to the MIB")
	return t, nil
}

func makeSubscriberStation(cfg E3Config, rows int, sel float64) (*netsim.Station, int, error) {
	st, err := netsim.NewStation("atm-switch", cfg.Seed, cfg.Link, "public")
	if err != nil {
		return nil, 0, err
	}
	matching := 0
	cut := uint16(30000 + int(sel*20000))
	for i := 0; i < rows; i++ {
		port := uint16(30000 + (i*977)%20000) // deterministic spread
		if port < cut {
			matching++
		}
		st.Dev.OpenConn(mib.ConnID{
			LocalAddr: [4]byte{10, 0, 0, 1},
			LocalPort: 5060,
			RemAddr:   [4]byte{byte(12 + i%80), byte(i % 256), byte((i / 256) % 256), byte(1 + i%254)},
			RemPort:   port,
		})
	}
	return st, matching, nil
}
