package federation

import (
	"fmt"
	"reflect"
	"testing"

	"mbd/internal/mib"
	"mbd/internal/vdl"
)

// TestFedRollupOIDAligned keeps vdl's duplicated rollup-entry OID (vdl
// must not import federation) in sync with the actual mount layout.
func TestFedRollupOIDAligned(t *testing.T) {
	want := append(OIDFederation.Clone(), tableRollup)
	if !vdl.OIDFedRollup.Equal(want) {
		t.Fatalf("vdl.OIDFedRollup = %v, federation rollup entry = %v", vdl.OIDFedRollup, want)
	}
}

// TestRollupOnChange checks the change callback fires on accepted
// changes only.
func TestRollupOnChange(t *testing.T) {
	r := NewRollup(Sum())
	fired := 0
	r.OnChange(func() { fired++ })
	r.Report("a", "conns", "3", 1)
	if fired != 1 {
		t.Fatalf("after first report fired=%d", fired)
	}
	r.Report("a", "conns", "3", 2) // same combined value: no change
	if fired != 1 {
		t.Fatalf("after no-op report fired=%d", fired)
	}
	r.Report("b", "conns", "2", 3)
	if fired != 2 {
		t.Fatalf("after second member fired=%d", fired)
	}
	if upd := r.DropMember("b"); len(upd) == 0 || fired != 3 {
		t.Fatalf("after drop upd=%v fired=%d", upd, fired)
	}
	if upd := r.DropMember("nobody"); len(upd) != 0 || fired != 3 {
		t.Fatalf("after vacuous drop upd=%v fired=%d", upd, fired)
	}
}

// TestFederationScopedViewIncremental mounts a bare rollup on a manager
// tree and keeps a VDL view over fedRollupTable continuously
// materialized: every accepted report drives an incremental refresh,
// and results stay byte-identical to a from-scratch Eval.
func TestFederationScopedViewIncremental(t *testing.T) {
	tree := &mib.Tree{}
	r := NewRollup(Sum())
	if err := MountRollup(tree, r, OIDFederation); err != nil {
		t.Fatal(err)
	}

	schema := vdl.MIB2().AddFederation()
	a := vdl.NewMCVA(tree, schema)
	defer a.Close()
	ev := vdl.NewEvaluator(tree, schema)
	def, err := a.Define(`view domainHot {
  from fedRollupTable;
  select fedRollupKey, fedRollupValue, fedRollupMembers;
  where fedRollupMembers > 1;
}`)
	if err != nil {
		t.Fatal(err)
	}
	aggDef, err := a.Define(`view domainSize {
  from fedRollupTable;
  select count() as keys, sum(fedRollupMembers) as contribs;
}`)
	if err != nil {
		t.Fatal(err)
	}

	check := func() {
		t.Helper()
		for _, d := range []*vdl.ViewDef{def, aggDef} {
			got, err := a.Query(d.Name)
			if err != nil {
				t.Fatalf("incremental %s: %v", d.Name, err)
			}
			want, err := ev.Eval(d)
			if err != nil {
				t.Fatalf("full %s: %v", d.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s diverged:\n got %+v\nwant %+v", d.Name, got, want)
			}
		}
	}

	check() // empty rollup
	for i := 0; i < 8; i++ {
		for _, key := range []string{"conns", "errors", "health"} {
			r.Report(fmt.Sprintf("leaf-%d", i), key, fmt.Sprintf("%d", i+1), int64(i))
		}
		check()
	}
	res, err := a.Query("domainHot")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 keys with >1 contributor", len(res.Rows))
	}
	// Member death renumbers rows; the reset-and-diff path must converge.
	r.DropMember("leaf-3")
	check()
	st := a.Stats()
	if st.DeltasFolded == 0 {
		t.Fatal("no deltas folded from rollup changes")
	}
	if st.Recomputes != 0 {
		t.Fatalf("recomputes = %d, want 0", st.Recomputes)
	}
}
