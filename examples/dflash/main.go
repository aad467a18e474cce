// Dflash recreates the dissertation's dFLASH anecdote: "The dFLASH
// server is a homologous sequence retrieval program for protein
// sequences. The server supports remote researchers via e-mail
// requests" — and "using delegated agents, applications can overcome
// many resource constraints. For instance, bandwidth limitations are
// avoided by reducing the transfer of unnecessary data."
//
// Here the sequence database lives inside an elastic process reachable
// over real RDS/TCP. A remote researcher, instead of downloading the
// whole database, delegates a small DPL filter that scans server-side
// and reports only matching sequences.
//
//	go run ./examples/dflash
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"strings"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/elastic"
	"mbd/internal/rds"
)

// filterSource is the researcher's delegated agent: scan every sequence
// for a motif passed as the entry argument, report matches only.
const filterSource = `
func main(motif) {
	var n = dbSize();
	var hits = 0;
	for (var i = 0; i < n; i += 1) {
		var seq = dbFetch(i);
		if (contains(seq, motif)) {
			report(sprintf("seq %d (%d residues) matches %s", i, len(seq), motif));
			hits += 1;
		}
	}
	return hits;
}`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The server side: an elastic process whose allowed-function table
	// exposes the sequence database (read-only) to delegated programs.
	db := makeDatabase(500, 42)
	var dbBytes int
	for _, s := range db {
		dbBytes += len(s)
	}
	bindings := dpl.Std()
	bindings.Register("dbSize", 0, func(*dpl.Env, []dpl.Value) (dpl.Value, error) {
		return dpl.Int(int64(len(db))), nil
	})
	bindings.Register("dbFetch", 1, func(_ *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		i, ok := args[0].AsInt()
		if !ok || i < 0 || i >= int64(len(db)) {
			return dpl.Value{}, fmt.Errorf("dbFetch: index %v out of range", args[0])
		}
		return dpl.Str(db[i]), nil
	})
	proc := elastic.NewProcess(elastic.Config{Bindings: bindings})
	defer proc.Stop()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		if err := rds.NewServer(proc, nil).Serve(ctx, l); err != nil {
			log.Printf("server: %v", err)
		}
	}()
	fmt.Printf("dFLASH-style server holding %d sequences (%.1f KB) on %s\n\n",
		len(db), float64(dbBytes)/1024, l.Addr())

	// The researcher's side, over the real wire.
	c, err := rds.Dial(l.Addr().String(), "researcher")
	if err != nil {
		return err
	}
	defer c.Close()
	rctx, rcancel := context.WithTimeout(ctx, 30*time.Second)
	defer rcancel()

	if err := c.Subscribe(rctx, ""); err != nil {
		return err
	}
	if err := c.Delegate(rctx, "motif-filter", filterSource); err != nil {
		return err
	}
	motif := "WQW"
	id, err := c.Instantiate(rctx, "motif-filter", "main", "s:"+motif)
	if err != nil {
		return err
	}
	fmt.Printf("delegated a %d-byte filter, scanning for motif %q as %s\n\n", len(filterSource), motif, id)

	hits := 0
	for ev := range c.Events() {
		switch ev.Kind {
		case "report":
			hits++
			fmt.Println("  match:", ev.Payload)
		case "exit":
			sent, rcvd := c.Bytes()
			fmt.Printf("\nfilter finished: %s sequences matched\n", ev.Payload)
			fmt.Printf("wire traffic: %d bytes out, %d bytes in — versus %d bytes to download the database\n",
				sent, rcvd, dbBytes)
			fmt.Printf("the delegated filter avoided %.1f%% of the transfer\n",
				100*(1-float64(sent+rcvd)/float64(dbBytes)))
			return nil
		}
	}
	_ = hits
	return fmt.Errorf("event stream closed before the filter finished")
}

// makeDatabase synthesizes protein-like sequences (the paper's data is
// proprietary wet-lab material; random sequences over the amino-acid
// alphabet exercise the identical code path — see DESIGN.md §2).
func makeDatabase(n int, seed int64) []string {
	const aminoAcids = "ACDEFGHIKLMNPQRSTVWY"
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		var b strings.Builder
		l := 80 + rng.Intn(240)
		for j := 0; j < l; j++ {
			b.WriteByte(aminoAcids[rng.Intn(len(aminoAcids))])
		}
		out[i] = b.String()
	}
	return out
}
