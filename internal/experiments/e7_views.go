package experiments

import (
	"fmt"
	"time"

	"mbd/internal/mib"
	"mbd/internal/netsim"
	"mbd/internal/snmp"
	"mbd/internal/vdl"
)

// E7ViewEconomy reproduces the VDL-vs-SMI-extension comparison:
// "Consider, for instance, the simple example given in Figure 5.10,
// which only takes five lines in our vdl. The same example is given in
// Figure 5.19 using smi extensions" — which balloons. For a suite of
// representative views (projection, selection, computation, join,
// aggregate) the table reports the specification size in both notations
// and the query cost via the view versus a raw table walk.
func E7ViewEconomy() (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "MIB views: specification economy (VDL vs SMI-extension style) and query cost",
		Headers: []string{"view", "VDL lines", "SMI lines", "spec factor", "walk cells", "view rows", "walk bytes", "view bytes"},
	}
	views := []struct {
		name string
		src  string
	}{
		{"projection", `view addrs {
  from tcpConnTable;
  select tcpConnRemAddress, tcpConnRemPort;
}`},
		{"selection", `view telnet {
  from tcpConnTable;
  select tcpConnRemAddress;
  where tcpConnLocalPort == 23;
}`},
		{"computation", `view traffic {
  from ifTable;
  select ifIndex, ifInOctets + ifOutOctets as total;
  where ifOperStatus == 1;
}`},
		{"join", `view routesByIf {
  from ipRouteTable as r join ifTable as i on r:ipRouteIfIndex == i:ifIndex;
  select r:ipRouteDest, i:ifDescr, r:ipRouteMetric1;
}`},
		{"aggregate", `view summary {
  from ifTable;
  select count() as up, sum(ifInOctets) as octets;
  where ifOperStatus == 1;
}`},
	}

	st, err := netsim.NewStation("router", 31, netsim.LAN(), "public")
	if err != nil {
		return nil, err
	}
	st.Dev.SetLoad(mib.LoadProfile{Utilization: 0.3, BroadcastFraction: 0.05, ErrorRate: 0.005, CollisionRate: 0.02})
	st.Dev.Advance(time.Minute)
	for i := 0; i < 20; i++ {
		st.Dev.AddRoute([4]byte{192, 168, byte(i), 0}, uint32(1+i%2), int64(1+i%5), [4]byte{10, 0, 0, 254})
		st.Dev.OpenConn(mib.ConnID{
			LocalAddr: [4]byte{10, 0, 0, 1}, LocalPort: uint16(23 + (i%3)*57),
			RemAddr: [4]byte{172, 16, 0, byte(i + 1)}, RemPort: uint16(40000 + i),
		})
	}
	mcva := vdl.NewMCVA(st.Dev.Tree(), vdl.MIB2())
	defer mcva.Close()

	for _, v := range views {
		def, err := mcva.Define(v.src)
		if err != nil {
			return nil, fmt.Errorf("e7 %s: %w", v.name, err)
		}
		smi := vdl.RenderSMI(def, 424242)
		vdlLines := vdl.SpecLines(v.src)
		smiLines := vdl.SpecLines(smi)

		// Raw cost: walk the base table(s) over SNMP.
		sim := netsim.NewSim()
		var tr netsim.Traffic
		walkCells := 0
		tables := []string{def.From.Table}
		if def.Join != nil {
			tables = append(tables, def.Join.Right.Table)
		}
		pending := len(tables)
		for _, tbl := range tables {
			ts, _ := vdl.MIB2().Lookup(tbl)
			st.Walk(sim, "public", &tr, ts.Entry, func(vbs []snmp.VarBind) {
				walkCells += len(vbs)
				pending--
			})
		}
		sim.Run(time.Hour)
		if pending != 0 {
			return nil, fmt.Errorf("e7 %s: walks incomplete", v.name)
		}

		// View cost: result rows stream back as RDS frames.
		res, err := mcva.Query(def.Name)
		if err != nil {
			return nil, err
		}
		sim2 := netsim.NewSim()
		var tr2 netsim.Traffic
		ses := netsim.NewSession(sim2, st, &tr2)
		for _, r := range res.Rows {
			payload := ""
			for i, c := range r.Cells {
				if i > 0 {
					payload += "|"
				}
				payload += fmt.Sprintf("%v", c)
			}
			ses.Report("mcva#1", payload, func(string) {})
		}
		sim2.Run(time.Hour)

		t.AddRow(
			v.name,
			fmt.Sprintf("%d", vdlLines),
			fmt.Sprintf("%d", smiLines),
			fmtRatio(float64(smiLines), float64(vdlLines)),
			fmt.Sprintf("%d", walkCells),
			fmt.Sprintf("%d", len(res.Rows)),
			fmtBytes(tr.Bytes()),
			fmtBytes(tr2.Bytes()),
		)
	}
	t.AddNote("device: 2 interfaces, 20 routes, 20 connections; SMI rendering follows the OBJECT-TYPE-per-derived-attribute style of the alternative VDL")
	t.AddNote("walk bytes pay for every cell of the base tables; view bytes pay only for computed result rows")
	return t, nil
}
