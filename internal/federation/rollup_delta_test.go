package federation

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestRollupFoldMatchesSeed is the fold-vs-from-scratch crosscheck: a
// random stream of reports, clock regressions and member drops runs
// through each built-in combiner, and after every step the rollup's
// folded value must equal Seed over the live contribution set.
func TestRollupFoldMatchesSeed(t *testing.T) {
	for _, c := range []Combiner{Sum(), Max(), Latest()} {
		seed := int64(rand.Uint32())
		rng := rand.New(rand.NewSource(seed))
		r := NewRollup(c)
		live := map[string]MemberValue{}
		for step := 0; step < 2000; step++ {
			m := fmt.Sprintf("m%02d", rng.Intn(12))
			if rng.Intn(8) == 0 {
				r.DropMember(m)
				delete(live, m)
			} else {
				mv := MemberValue{Member: m, Value: fmt.Sprint(rng.Intn(50)), TimeMS: int64(rng.Intn(40))}
				r.Report(m, "k", mv.Value, mv.TimeMS)
				live[m] = mv
			}
			got, ok := r.Value("k")
			if len(live) == 0 {
				if ok {
					t.Fatalf("%s seed %d step %d: key survives with no contributors", c.Name(), seed, step)
				}
				continue
			}
			vals := make([]MemberValue, 0, len(live))
			for _, v := range live {
				vals = append(vals, v)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i].Member < vals[j].Member })
			if want := c.Seed(&KeyState{}, vals); got != want {
				t.Fatalf("%s seed %d step %d: folded %q, from scratch %q", c.Name(), seed, step, got, want)
			}
		}
		if st := rollupStats(r); st.Folds == 0 || st.Recombines == 0 {
			t.Fatalf("%s seed %d: stream exercised folds=%d recombines=%d, want both", c.Name(), seed, st.Folds, st.Recombines)
		}
	}
}

// TestRollupDeltaSumFolds proves the fleet-scale invariant at unit
// level: once a key is seeded, one report costs one member visit, not
// one visit per contributor.
func TestRollupDeltaSumFolds(t *testing.T) {
	r := NewRollup(Sum())
	const members = 1000
	for i := 0; i < members; i++ {
		r.Report(fmt.Sprintf("m%04d", i), "load", "1", int64(i))
	}
	if v, _ := r.Value("load"); v != "1000" {
		t.Fatalf("seeded sum = %q, want 1000", v)
	}
	before := rollupStats(r)
	combined, changed := r.Report("m0007", "load", "5", 2000)
	if combined != "1004" || !changed {
		t.Fatalf("after delta: %q (changed=%v), want 1004", combined, changed)
	}
	after := rollupStats(r)
	if d := after.MembersVisited - before.MembersVisited; d != 1 {
		t.Fatalf("one report visited %d members, want 1 (O(delta), not O(members))", d)
	}
	if after.Folds != before.Folds+1 || after.Recombines != before.Recombines {
		t.Fatalf("stats diff = folds+%d recombines+%d, want one fold, no recombine",
			after.Folds-before.Folds, after.Recombines-before.Recombines)
	}
	// Removal folds too: a sum absorbs a departure without recombining.
	before = after
	ups := r.DropMember("m0003")
	if len(ups) != 1 || ups[0].Value != "1003" {
		t.Fatalf("drop updates = %+v, want load=1003", ups)
	}
	after = rollupStats(r)
	if d := after.MembersVisited - before.MembersVisited; d != 1 {
		t.Fatalf("one drop visited %d members, want 1", d)
	}
}

// TestRollupDeltaMaxRecombines: max folds ordinary updates but must
// recombine when the winner degrades or departs.
func TestRollupDeltaMaxRecombines(t *testing.T) {
	r := NewRollup(Max())
	r.Report("a", "k", "1", 1)
	r.Report("b", "k", "5", 2)
	r.Report("c", "k", "3", 3)
	if v, _ := r.Value("k"); v != "5" {
		t.Fatalf("max = %q, want 5", v)
	}
	// Non-winner update: pure fold.
	before := rollupStats(r)
	if v, _ := r.Report("a", "k", "2.5", 4); v != "5" {
		t.Fatalf("after non-winner update = %q, want 5", v)
	}
	after := rollupStats(r)
	if after.Folds != before.Folds+1 || after.Recombines != before.Recombines {
		t.Fatal("non-winner update should fold without recombining")
	}
	// Winner degrade: fold declines, full recombine restores correctness.
	before = after
	if v, _ := r.Report("b", "k", "2", 5); v != "3" {
		v2, _ := r.Value("k")
		t.Fatalf("after winner degrade = %q, want 3 (now %q)", v2, v2)
	}
	after = rollupStats(r)
	if after.Recombines != before.Recombines+1 {
		t.Fatal("winner degrade must recombine")
	}
	// Winner departure: also a recombine.
	if ups := r.DropMember("c"); len(ups) != 1 || ups[0].Value != "2.5" {
		t.Fatalf("drop updates = %+v, want k=2.5", ups)
	}
	// New winner arrival: pure fold.
	before = rollupStats(r)
	if v, _ := r.Report("d", "k", "9", 6); v != "9" {
		t.Fatalf("after new winner = %q, want 9", v)
	}
	after = rollupStats(r)
	if after.Folds != before.Folds+1 || after.Recombines != before.Recombines {
		t.Fatal("new winner should fold without recombining")
	}
}

// TestRollupDeltaLatest: latest folds forward-moving reports, matches
// the sorted-order tie-break of the full combine, and recombines when
// the holder's clock runs backwards or the holder leaves.
func TestRollupDeltaLatest(t *testing.T) {
	r := NewRollup(Latest())
	r.Report("b", "k", "vb", 10)
	r.Report("a", "k", "va", 10)
	// Ties break toward the smaller member name, exactly like Seed over
	// the sorted value set.
	if v, _ := r.Value("k"); v != "va" {
		t.Fatalf("tie = %q, want va", v)
	}
	if v, _ := r.Report("b", "k", "vb2", 20); v != "vb2" {
		t.Fatalf("newer report = %q, want vb2", v)
	}
	// Holder reporting an older timestamp forces a recombine.
	before := rollupStats(r)
	if v, _ := r.Report("b", "k", "old", 5); v != "va" {
		t.Fatalf("after clock regression = %q, want va", v)
	}
	if after := rollupStats(r); after.Recombines != before.Recombines+1 {
		t.Fatal("holder clock regression must recombine")
	}
	// Holder departure recombines to the survivor.
	r.Report("b", "k", "vb3", 30)
	if ups := r.DropMember("b"); len(ups) != 1 || ups[0].Value != "va" {
		t.Fatalf("drop updates = %+v, want k=va", ups)
	}
}

// rollupStats snapshots r's aggregation-work counters.
func rollupStats(r *Rollup) RollupStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}
