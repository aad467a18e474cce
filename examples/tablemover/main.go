// Tablemover replays the "moving large tables" scenario: an ATM-class
// switch with thousands of subscriber entries sits across a 254 ms WAN
// path. The operator needs the handful of entries matching a predicate.
// Compare walking the whole table over SNMP with installing a VDL view
// at the switch's MbD server.
//
//	go run ./examples/tablemover
package main

import (
	"fmt"
	"log"
	"time"

	"mbd/internal/mib"
	"mbd/internal/netsim"
	"mbd/internal/snmp"
	"mbd/internal/vdl"
)

const subscribers = 2000

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	link := netsim.WAN(254 * time.Millisecond)
	st, err := netsim.NewStation("atm-switch", 5, link, "public")
	if err != nil {
		return err
	}
	for i := 0; i < subscribers; i++ {
		st.Dev.OpenConn(mib.ConnID{
			LocalAddr: [4]byte{10, 0, 0, 1},
			LocalPort: 5060,
			RemAddr:   [4]byte{byte(12 + i%80), byte(i % 256), byte((i / 256) % 256), byte(1 + i%254)},
			RemPort:   uint16(30000 + (i*977)%20000),
		})
	}
	fmt.Printf("switch holds %d subscriber entries; link RTT %v\n\n", subscribers, link.RTT())

	// Centralized: walk everything, filter at the platform.
	sim := netsim.NewSim()
	var walkTr netsim.Traffic
	var walkTime time.Duration
	var cells int
	st.Walk(sim, "public", &walkTr, mib.OIDTCPConnEntry, func(vbs []snmp.VarBind) {
		cells = len(vbs)
		walkTime = sim.Now()
	})
	sim.Run(24 * time.Hour)
	fmt.Printf("SNMP walk:     %7d PDUs, %9d bytes, %12v  (%d cells hauled)\n",
		walkTr.Requests+walkTr.Responses, walkTr.Bytes(), walkTime.Round(time.Millisecond), cells)

	// Delegated: the view computes at the switch; only matches travel.
	viewSrc := `view premium {
  from tcpConnTable;
  select tcpConnRemAddress, tcpConnRemPort;
  where tcpConnRemPort < 31000;
}`
	mcva := vdl.NewMCVA(st.Dev.Tree(), vdl.MIB2())
	defer mcva.Close()
	if _, err := mcva.Define(viewSrc); err != nil {
		return err
	}
	res, err := mcva.Query("premium")
	if err != nil {
		return err
	}

	sim2 := netsim.NewSim()
	var viewTr netsim.Traffic
	ses := netsim.NewSession(sim2, st, &viewTr)
	var viewTime time.Duration
	ses.Delegate("premium", viewSrc, func() {
		remaining := len(res.Rows)
		for _, r := range res.Rows {
			ses.Report("mcva#1", fmt.Sprintf("%v:%v", r.Cells[0], r.Cells[1]), func(string) {
				remaining--
				if remaining == 0 {
					viewTime = sim2.Now()
				}
			})
		}
	})
	sim2.Run(24 * time.Hour)
	fmt.Printf("delegated view: %6d frames, %9d bytes, %12v  (%d matching rows returned)\n",
		viewTr.Requests+viewTr.Responses, viewTr.Bytes(), viewTime.Round(time.Millisecond), len(res.Rows))

	fmt.Printf("\nthe view moved %.0fx fewer bytes and finished %.0fx sooner\n",
		float64(walkTr.Bytes())/float64(viewTr.Bytes()),
		float64(walkTime)/float64(viewTime))
	return nil
}
