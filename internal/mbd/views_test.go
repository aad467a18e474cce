package mbd_test

// End-to-end coverage of the RDS view operation: a manager defines and
// queries continuously-materialized VDL views over real TCP against an
// MbD server with EnableViews set.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"mbd/internal/mbd"
	"mbd/internal/mib"
	"mbd/internal/rds"
	"mbd/internal/snmp"
	"mbd/internal/vdl"
)

// viewServer boots an MbD server with the view agent on, its v-mib
// mounted, and an authenticated RDS server in front of it over real
// TCP, returning the server and a connected manager.
func viewServer(t *testing.T, dev *mib.Device, viewDefs ...string) (*mbd.Server, *rds.Client) {
	t.Helper()
	srv, err := mbd.New(mbd.Config{Device: dev, EnableViews: true, ViewDefs: viewDefs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	views := srv.Views()
	if views == nil {
		t.Fatal("EnableViews set but Views() == nil")
	}
	if err := dev.Tree().Mount(vdl.OIDViews, views.Handler()); err != nil {
		t.Fatal(err)
	}

	auth := rds.NewAuthenticator()
	auth.SetSecret("noc", "hunter2")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, scancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = rds.NewServer(srv.Process(), auth, rds.WithViewHandler(views)).Serve(sctx, l)
	}()
	t.Cleanup(func() { scancel(); <-done })

	cliAuth := rds.NewAuthenticator()
	cliAuth.SetSecret("noc", "hunter2")
	c, err := rds.Dial(l.Addr().String(), "noc", rds.WithAuth(cliAuth))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func TestViewOpOverRDS(t *testing.T) {
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "view-router", Seed: 9, Interfaces: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, c := viewServer(t, dev, `view up {
  from ifTable;
  select ifIndex, ifDescr;
  where ifOperStatus == 1;
}`)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Status lists the preinstalled view.
	st, err := c.ViewStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st, `"up"`) {
		t.Fatalf("status missing preinstalled view: %s", st)
	}

	// Define a second view over the wire.
	def, err := c.ViewDefine(ctx, `view busy {
  from ifTable;
  select ifIndex, ifInOctets;
  where ifInOctets > 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(def, `"busy"`) {
		t.Fatalf("define reply: %s", def)
	}

	// Query both; all four interfaces start up, so "up" has 4 rows.
	raw, err := c.ViewQuery(ctx, "up")
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		View    string   `json:"view"`
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}
	if err := json.Unmarshal([]byte(raw), &res); err != nil {
		t.Fatalf("query reply %s: %v", raw, err)
	}
	if res.View != "up" || len(res.Rows) != 4 {
		t.Fatalf("up view = %+v, want 4 rows", res)
	}

	// A local mutation is reflected on the next remote query.
	if err := dev.SetInterfaceStatus(2, 2); err != nil {
		t.Fatal(err)
	}
	raw, err = c.ViewQuery(ctx, "up")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(raw), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("after ifdown rows = %d, want 3", len(res.Rows))
	}

	// Unknown views and verbs produce errors, not garbage.
	if _, err := c.ViewQuery(ctx, "nope"); err == nil {
		t.Fatal("query of unknown view succeeded")
	}
}

// TestViewsSingleNamespace: a view installed through any of the three
// doors (startup ViewDefs, RDS view define, DPL viewDefine) is served
// identically through all three exits (RDS view query, DPL viewQuery,
// SNMP GetNext walk of the v-mib) — one agent, one namespace.
func TestViewsSingleNamespace(t *testing.T) {
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "view-router", Seed: 9, Interfaces: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SetInterfaceStatus(3, mib.IfStatusDown); err != nil {
		t.Fatal(err)
	}
	srv, c := viewServer(t, dev, `view viaDefs { from ifTable; select ifIndex, ifDescr; where ifOperStatus == 1; }`)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.ViewDefine(ctx, `view viaRDS { from ifTable; select ifDescr, ifOperStatus; }`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Eval(ctx, `func main() {
	return viewDefine("view viaDPL { from ifTable; select count() as n, max(ifIndex) as hi; }");
}`, "main"); err != nil {
		t.Fatal(err)
	}
	names := []string{"viaDefs", "viaRDS", "viaDPL"}
	if got := srv.Views().Views(); fmt.Sprint(got) != fmt.Sprint(names) {
		t.Fatalf("agent holds %v, want %v", got, names)
	}

	// Exit 3, read once: the GetNext walk, regrouped from column-major
	// instances (view.column.row) into one rendering per view.
	cells := map[[3]uint32]string{}
	dims := make([][2]uint32, len(names)) // columns, rows
	sc := snmp.NewClient(snmp.AgentTripper(srv.Agent()), "public")
	if _, err := sc.Walk(ctx, vdl.OIDViews, func(vb snmp.VarBind) bool {
		rel, _ := vb.Name.Index(vdl.OIDViews)
		if len(rel) != 3 || rel[0] < 1 || int(rel[0]) > len(names) {
			t.Fatalf("v-mib instance %s is not view.column.row of a known view", vb.Name)
		}
		d := &dims[rel[0]-1]
		d[0], d[1] = max(d[0], rel[1]), max(d[1], rel[2])
		if vb.Value.Kind == mib.KindOctetString {
			cells[[3]uint32(rel)] = string(vb.Value.Bytes)
		} else {
			cells[[3]uint32(rel)] = fmt.Sprint(vb.Value.Int)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}

	for i, name := range names {
		raw, err := c.ViewQuery(ctx, name)
		if err != nil {
			t.Fatalf("RDS view query %s: %v", name, err)
		}
		var res struct {
			Rows [][]any `json:"rows"`
		}
		if err := json.Unmarshal([]byte(raw), &res); err != nil {
			t.Fatal(err)
		}
		var viaRDS, viaSNMP strings.Builder
		for _, row := range res.Rows {
			for _, cell := range row {
				fmt.Fprintf(&viaRDS, "%v|", cell)
			}
			viaRDS.WriteString(";")
		}
		if viaRDS.Len() == 0 {
			t.Fatalf("view %s is empty; the comparison would be vacuous", name)
		}
		for r := uint32(1); r <= dims[i][1]; r++ {
			for col := uint32(1); col <= dims[i][0]; col++ {
				viaSNMP.WriteString(cells[[3]uint32{uint32(i + 1), col, r}] + "|")
			}
			viaSNMP.WriteString(";")
		}
		viaDPL, err := c.Eval(ctx, `func main(name) {
	var out = "";
	var rows = viewQuery(name);
	for (var i = 0; i < len(rows); i += 1) {
		for (var j = 0; j < len(rows[i]); j += 1) { out = out + sprintf("%v|", rows[i][j]); }
		out = out + ";";
	}
	return out;
}`, "main", "s:"+name)
		if err != nil {
			t.Fatalf("DPL viewQuery %s: %v", name, err)
		}
		if viaSNMP.String() != viaRDS.String() || viaDPL != viaRDS.String() {
			t.Fatalf("view %s differs by exit:\n rds  %s\n dpl  %s\n snmp %s", name, viaRDS.String(), viaDPL, viaSNMP.String())
		}
	}
}
