package mbd

import (
	"sync"
	"testing"
	"time"

	"mbd/internal/dpl"
	"mbd/internal/mib"
	"mbd/internal/oid"
)

// walkPrefixes are walks of very different sizes that agents on one
// server make: agent_rpc's ifEntry, a handful of system scalars,
// table_stream's all of MIB-II, conn-watch's tcpConnTable and nothing.
var walkPrefixes = []oid.OID{
	oid.MustParse("1.3.6.1.2.1.2.2.1"),    // ifEntry: 68 rows
	oid.MustParse("1.3.6.1.2.1.1"),        // system: a handful
	oid.MustParse("1.3.6.1.2.1"),          // all of MIB-II
	oid.MustParse("1.3.6.1.2.1.6.13.1.1"), // tcpConnState
	oid.MustParse("1.3.6.1.9"),            // nothing
}

func walkerTree(t testing.TB) *mib.Tree {
	t.Helper()
	dev, err := mib.NewDevice(mib.DeviceConfig{Name: "walker", Interfaces: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dev.Advance(time.Minute)
	return dev.Tree()
}

// TestWalkerSharedAcrossWalks: one Walker serves every DPI of a server, so
// walks of different sizes run through it at once; each must still see
// exactly its own rows, however earlier walks sized the buffers.
func TestWalkerSharedAcrossWalks(t *testing.T) {
	tree := walkerTree(t)
	prefixes := walkPrefixes
	want := make([]string, len(prefixes))
	for i, p := range prefixes {
		var fresh Walker
		want[i] = dpl.FormatValue(fresh.Walk(tree, p))
	}
	var shared Walker
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (g + i) % len(prefixes)
				if got := dpl.FormatValue(shared.Walk(tree, prefixes[k])); got != want[k] {
					t.Errorf("walk of %s through a shared Walker = %.80s..., want %.80s...", prefixes[k], got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	// Appending to a row copies it: the next row keeps its cells.
	rows, _ := shared.Walk(tree, prefixes[0]).AsArray()
	first, _ := rows.Elems[0].AsArray()
	second := rows.Elems[1].String()
	first.Elems = append(first.Elems, dpl.Str("extra"))
	if rows.Elems[1].String() != second {
		t.Fatalf("appending to row 0 overwrote row 1: %s", rows.Elems[1])
	}
}

// TestWalkerHintsBounded: the walker remembers the sizes of at most
// maxWalkHints prefixes, however many an agent walks.
func TestWalkerHintsBounded(t *testing.T) {
	var tree mib.Tree
	var prefixes []oid.OID
	for i := 1; i <= 3*maxWalkHints; i++ {
		p := oid.MustParse("1.3.6.1.4.1.9999").Append(uint32(i))
		if err := tree.Mount(p, mib.ConstScalar(mib.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, p)
	}
	var w Walker
	for _, p := range prefixes {
		if rows, _ := w.Walk(&tree, p).AsArray(); len(rows.Elems) != 1 {
			t.Fatalf("walk of %s = %d rows, want 1", p, len(rows.Elems))
		}
		if len(w.sizes) > maxWalkHints {
			t.Fatalf("walker remembers %d prefixes, at most %d", len(w.sizes), maxWalkHints)
		}
	}
}

// BenchmarkWalker measures mibWalk's result on its own: "ifEntry" is the
// one walk agent_rpc repeats, "mixed" one round of every walkPrefixes
// walk through the same Walker, as agents with different tables make on
// one server. A small walk must not pay for the large one before it.
func BenchmarkWalker(b *testing.B) {
	tree := walkerTree(b)
	for _, bc := range []struct {
		name     string
		prefixes []oid.OID
	}{
		{"ifEntry", walkPrefixes[:1]},
		{"mixed", walkPrefixes},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var w Walker
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range bc.prefixes {
					w.Walk(tree, p)
				}
			}
		})
	}
}
