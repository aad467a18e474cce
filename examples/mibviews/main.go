// Mibviews demonstrates the View Definition Language and the MCVA:
// projections, selections, computations, a join across base tables, an
// aggregate, snapshots that survive base-table churn, exposure of
// computed views to plain SNMP managers through the v-mib, and
// continuous materialization: the MCVA keeps every view fresh by
// folding per-row change deltas instead of rescanning tables.
//
//	go run ./examples/mibviews
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"mbd/internal/mib"
	"mbd/internal/snmp"
	"mbd/internal/vdl"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "core-router", Interfaces: 4, Seed: 11})
	if err != nil {
		return err
	}
	dev.SetLoad(mib.LoadProfile{Utilization: 0.5, BroadcastFraction: 0.06, ErrorRate: 0.004, CollisionRate: 0.03})
	dev.Advance(2 * time.Minute)
	for i := 0; i < 6; i++ {
		dev.AddRoute([4]byte{192, 168, byte(i), 0}, uint32(1+i%4), int64(1+i%3), [4]byte{10, 0, 0, 254})
	}
	dev.OpenConn(mib.ConnID{LocalAddr: [4]byte{10, 0, 0, 1}, LocalPort: 23, RemAddr: [4]byte{198, 51, 100, 7}, RemPort: 40001})
	dev.OpenConn(mib.ConnID{LocalAddr: [4]byte{10, 0, 0, 1}, LocalPort: 80, RemAddr: [4]byte{10, 0, 2, 9}, RemPort: 40002})

	mcva := vdl.NewMCVA(dev.Tree(), vdl.MIB2())
	defer mcva.Close()

	// The canonical five-line view.
	viewSrc := `view busy {
  from ifTable;
  select ifIndex, ifDescr, ifInOctets + ifOutOctets as total;
  where ifOperStatus == 1;
}`
	def, err := mcva.Define(viewSrc)
	if err != nil {
		return err
	}
	fmt.Printf("defined view %q — %d lines of VDL\n", def.Name, vdl.SpecLines(viewSrc))
	smi := vdl.RenderSMI(def, 424242)
	fmt.Printf("the same view in SMI-extension style would be %d lines\n\n", vdl.SpecLines(smi))

	show := func(name string) error {
		res, err := mcva.Query(name)
		if err != nil {
			return err
		}
		fmt.Printf("view %s (%d base rows scanned):\n  %v\n", name, res.BaseRows, res.Columns)
		for _, r := range res.Rows {
			fmt.Printf("  %v\n", r.Cells)
		}
		fmt.Println()
		return nil
	}
	if err := show("busy"); err != nil {
		return err
	}

	// A join: the routing-problem correlation the dissertation motivates.
	if _, err := mcva.Define(`view routesByIf {
  from ipRouteTable as r join ifTable as i on r:ipRouteIfIndex == i:ifIndex;
  select r:ipRouteDest, i:ifDescr, i:ifOperStatus, r:ipRouteMetric1;
}`); err != nil {
		return err
	}
	if err := show("routesByIf"); err != nil {
		return err
	}

	// An aggregate.
	if _, err := mcva.Define(`view summary {
  from ifTable;
  select count() as ifaces, sum(ifInOctets) as totalIn, avg(ifInErrors) as meanErrs;
}`); err != nil {
		return err
	}
	if err := show("summary"); err != nil {
		return err
	}

	// Snapshots: freeze the connection table, then mutate it.
	if _, err := mcva.Define(`view conns { from tcpConnTable; select tcpConnRemAddress, tcpConnLocalPort; }`); err != nil {
		return err
	}
	id, err := mcva.Snapshot("conns")
	if err != nil {
		return err
	}
	dev.OpenConn(mib.ConnID{LocalAddr: [4]byte{10, 0, 0, 1}, LocalPort: 443, RemAddr: [4]byte{203, 0, 113, 99}, RemPort: 40003})
	snap, _ := mcva.SnapshotResult(id)
	live, err := mcva.Query("conns")
	if err != nil {
		return err
	}
	fmt.Printf("snapshot %d still shows %d connections; the live view now shows %d\n\n",
		id, len(snap.Rows), len(live.Rows))

	// Expose everything as a v-mib and read it over real SNMP.
	if err := dev.Tree().Mount(vdl.OIDViews, mcva.Handler()); err != nil {
		return err
	}
	agent := snmp.NewAgent(dev.Tree(), "public")
	c := snmp.NewClient(snmp.AgentTripper(agent), "public")
	fmt.Printf("walking the v-mib (%s) over SNMP:\n", vdl.OIDViews)
	n, err := c.Walk(context.Background(), vdl.OIDViews, func(vb snmp.VarBind) bool {
		fmt.Printf("  %s = %s\n", vb.Name, vb.Value)
		return true
	})
	if err != nil {
		return err
	}
	fmt.Printf("%d computed instances served to a plain SNMP manager\n\n", n)

	return continuous(dev, mcva)
}

// continuous shows the maintenance behind every view above: each device
// mutation publishes a change event, and the MCVA folds just the
// affected rows into the standing result — O(delta) work per write, so
// every query returns instantly-fresh rows without a table scan.
func continuous(dev *mib.Device, a *vdl.MCVA) error {
	def, err := a.Define(`view watchRoutes {
  from ipRouteTable as r join ifTable as i on r:ipRouteIfIndex == i:ifIndex;
  select r:ipRouteDest, i:ifDescr;
  where i:ifOperStatus == 1;
}`)
	if err != nil {
		return err
	}

	rows := func() int {
		res, err := a.Query(def.Name)
		if err != nil {
			return -1
		}
		return len(res.Rows)
	}
	fmt.Printf("continuous view %q starts with %d rows\n", def.Name, rows())

	// Mutations are reflected immediately — no rescan, no poll cycle.
	dev.AddRoute([4]byte{172, 16, 9, 0}, 2, 4, [4]byte{10, 0, 0, 250})
	fmt.Printf("after adding a route: %d rows\n", rows())
	if err := dev.SetInterfaceStatus(2, mib.IfStatusDown); err != nil {
		return err
	}
	fmt.Printf("after downing if 2 (its routes vanish): %d rows\n", rows())
	if err := dev.SetInterfaceStatus(2, mib.IfStatusUp); err != nil {
		return err
	}
	fmt.Printf("after restoring if 2: %d rows\n", rows())

	st := a.Stats()
	fmt.Printf("deltas folded: %d, full recomputes: %d\n", st.DeltasFolded, st.Recomputes)
	return nil
}
