package elastic

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mbd/internal/dpl"
)

// The paper's Repository "provides a common database service to store
// dps in the underlying file system". SaveRepository and LoadRepository
// implement that persistence: delegated program *source* is written as
// <name>.dpl files; on load each file is re-run through the Translator,
// so stored programs are re-checked against the (possibly changed)
// allowed-function table before becoming instantiable again.

// dpFileExt is the on-disk extension for delegated program source;
// dpcFileExt holds encoded verified-bytecode artifacts, which have no
// source to store.
const (
	dpFileExt  = ".dpl"
	dpcFileExt = ".dplc"
)

// SaveRepository writes every stored DP into dir, one file per program:
// source DPs as <name>.dpl, bytecode-admitted DPs as their encoded
// CompiledProgram in <name>.dplc. It then removes every other program
// file in dir, so a deleted DP, or the other form of a re-delegated
// one, does not come back on the next load. DP names containing path
// separators are rejected.
func (p *Process) SaveRepository(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("elastic: repository dir: %w", err)
	}
	written := map[string]bool{}
	for _, dp := range p.repo.List() {
		if strings.ContainsAny(dp.Name, "/\\") || dp.Name == "" || strings.HasPrefix(dp.Name, ".") {
			return fmt.Errorf("elastic: dp name %q not storable as a file", dp.Name)
		}
		var path string
		var data []byte
		if dp.Lang == LangCompiled {
			if dp.Program == nil {
				return fmt.Errorf("elastic: dp %s has neither source nor program artifact", dp.Name)
			}
			blob, err := dp.Program.Encode()
			if err != nil {
				return fmt.Errorf("elastic: encoding %s: %w", dp.Name, err)
			}
			path, data = filepath.Join(dir, dp.Name+dpcFileExt), blob
		} else {
			path, data = filepath.Join(dir, dp.Name+dpFileExt), []byte(dp.Source)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("elastic: saving %s: %w", dp.Name, err)
		}
		written[filepath.Base(path)] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("elastic: repository dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || written[name] || !strings.HasSuffix(name, dpFileExt) && !strings.HasSuffix(name, dpcFileExt) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("elastic: removing %s: %w", name, err)
		}
	}
	return nil
}

// LoadRepository translates and stores every *.dpl file found in dir
// under its base name, attributing ownership to owner. It returns the
// number of programs loaded. The load is atomic: every file is
// translated and admitted first, and only when all of them pass are any
// stored — a rejected file aborts the load with its diagnostics without
// mutating the already-loaded repository state.
func (p *Process) LoadRepository(dir, owner string) (int, error) {
	if !p.cfg.ACL.Allow(owner, RightDelegate) {
		return 0, fmt.Errorf("%w: %s may not delegate", ErrDenied, owner)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("elastic: repository dir: %w", err)
	}
	var prepared []*DP
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		isSrc := strings.HasSuffix(e.Name(), dpFileExt)
		isProg := strings.HasSuffix(e.Name(), dpcFileExt)
		if !isSrc && !isProg {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, fmt.Errorf("elastic: reading %s: %w", e.Name(), err)
		}
		var dp *DP
		if isProg {
			name := strings.TrimSuffix(e.Name(), dpcFileExt)
			dp, err = p.prepareCompiled(owner, name, data)
		} else {
			name := strings.TrimSuffix(e.Name(), dpFileExt)
			dp, err = p.prepare(owner, name, "dpl", string(data))
		}
		if err != nil {
			return 0, fmt.Errorf("elastic: loading %s: %w", e.Name(), err)
		}
		prepared = append(prepared, dp)
	}
	replaced, err := p.repo.StoreAll(prepared)
	if err != nil {
		p.met.repoFull.Inc()
		return 0, err
	}
	for i, dp := range prepared {
		p.committed(dp, replaced[i])
	}
	return len(prepared), nil
}

// Warm restart: SaveCheckpoint extends SaveRepository with a manifest
// of the *running* instances (dpis.json: DP name, entry, args, restart
// policy, watchdog bounds), and LoadCheckpoint re-admits the programs
// and re-instantiates the manifest's RestartAlways instances through
// the normal analysis/admission gate — so a drained server comes back
// running the same always-on management functions it was delegated.

// dpiManifest is the running-DPI spec file inside a checkpoint dir;
// tenantManifest carries the per-principal quota overrides and billing
// totals so a warm restart re-admits against the same tenancy state it
// shut down with.
const (
	dpiManifest    = "dpis.json"
	tenantManifest = "tenants.json"
)

// specRec is the JSON form of one running instance's spec.
type specRec struct {
	DP        string   `json:"dp"`
	Entry     string   `json:"entry"`
	Args      []argRec `json:"args,omitempty"`
	Policy    string   `json:"policy,omitempty"`
	Deadline  int64    `json:"deadline_ms,omitempty"`
	Stall     int64    `json:"stall_ms,omitempty"`
	Principal string   `json:"principal,omitempty"`
}

// tenantRec is the JSON form of one tenant's checkpointed state: the
// quota override when one was granted, plus the cumulative billing
// totals (a restart must not zero a tenant's bill).
type tenantRec struct {
	Principal string `json:"principal"`
	Quota     *Quota `json:"quota,omitempty"`
	Steps     uint64 `json:"steps_total,omitempty"`
	Events    uint64 `json:"events_total,omitempty"`
}

// argRec is one wire-encoded DPL argument. T is the type tag: int,
// float, bool, str or nil; values round-trip through their decimal /
// literal renderings.
type argRec struct {
	T string `json:"t"`
	V string `json:"v,omitempty"`
}

func encodeArg(v any) argRec {
	switch x := v.(type) {
	case nil:
		return argRec{T: "nil"}
	case bool:
		return argRec{T: "bool", V: strconv.FormatBool(x)}
	case int64:
		return argRec{T: "int", V: strconv.FormatInt(x, 10)}
	case float64:
		return argRec{T: "float", V: strconv.FormatFloat(x, 'g', -1, 64)}
	case string:
		return argRec{T: "str", V: x}
	default:
		// Composite arguments render lossily; good enough for specs,
		// which in practice carry scalars off the RDS wire.
		return argRec{T: "str", V: dpl.Format(v)}
	}
}

func decodeArg(a argRec) (any, error) {
	switch a.T {
	case "nil":
		return nil, nil
	case "bool":
		return strconv.ParseBool(a.V)
	case "int":
		return strconv.ParseInt(a.V, 10, 64)
	case "float":
		return strconv.ParseFloat(a.V, 64)
	case "str":
		return a.V, nil
	}
	return nil, fmt.Errorf("elastic: unknown checkpoint arg type %q", a.T)
}

// SaveCheckpoint writes a warm-restart checkpoint into dir: every
// stored DP's source (as SaveRepository) plus the dpis.json manifest of
// instances still running at call time. Call it while the process is
// still serving — after Stop every instance reads as finished and the
// manifest comes out empty.
func (p *Process) SaveCheckpoint(dir string) error {
	if err := p.SaveRepository(dir); err != nil {
		return err
	}
	p.mu.Lock()
	var recs []specRec
	for _, d := range p.dpis {
		if d.Finished() {
			continue
		}
		r := specRec{
			DP:        d.spec.DP,
			Entry:     d.spec.Entry,
			Policy:    string(d.spec.Policy),
			Deadline:  d.spec.Deadline.Milliseconds(),
			Stall:     d.spec.StallTimeout.Milliseconds(),
			Principal: d.spec.Principal,
		}
		for _, a := range d.spec.Args {
			r.Args = append(r.Args, encodeArg(a))
		}
		recs = append(recs, r)
	}
	p.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].DP != recs[j].DP {
			return recs[i].DP < recs[j].DP
		}
		return recs[i].Entry < recs[j].Entry
	})
	if recs == nil {
		recs = []specRec{} // renders as [], clearing any stale manifest
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return fmt.Errorf("elastic: encoding checkpoint: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, dpiManifest), data, 0o644); err != nil {
		return fmt.Errorf("elastic: writing checkpoint: %w", err)
	}
	return p.saveTenants(dir)
}

// saveTenants writes the tenant manifest: every principal with a quota
// override or a nonzero bill.
func (p *Process) saveTenants(dir string) error {
	recs := []tenantRec{}
	for _, st := range p.tenants.List() {
		r := tenantRec{Principal: st.Principal, Steps: st.Steps, Events: st.Events}
		if st.Override {
			q := st.Quota
			r.Quota = &q
		}
		if r.Quota == nil && r.Steps == 0 && r.Events == 0 {
			continue
		}
		recs = append(recs, r)
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return fmt.Errorf("elastic: encoding tenant checkpoint: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, tenantManifest), data, 0o644); err != nil {
		return fmt.Errorf("elastic: writing tenant checkpoint: %w", err)
	}
	return nil
}

// loadTenants restores the tenant manifest: overrides are re-granted
// (so the repository and instance restores below re-admit against the
// same quotas) and billing totals are re-credited. A missing manifest
// is not an error.
func (p *Process) loadTenants(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, tenantManifest))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("elastic: reading tenant checkpoint: %w", err)
	}
	var recs []tenantRec
	if err := json.Unmarshal(data, &recs); err != nil {
		return fmt.Errorf("elastic: decoding tenant checkpoint: %w", err)
	}
	for _, r := range recs {
		if r.Quota != nil {
			p.tenants.SetQuota(r.Principal, *r.Quota)
		}
		t := p.tenants.get(r.Principal)
		t.stepsTotal.Add(r.Steps)
		t.eventsTotal.Add(r.Events)
	}
	return nil
}

// LoadCheckpoint restores a warm-restart checkpoint: it loads the DP
// repository (atomically, re-running every program through analysis and
// admission) and re-instantiates the manifest's RestartAlways instances
// under their saved specs — instances with weaker policies stay down, a
// restart is not a reason to resurrect a run-once program. It returns
// the number of programs loaded and instances started. A missing
// manifest is not an error (cold repositories predate checkpoints).
func (p *Process) LoadCheckpoint(dir, owner string) (dps, dpis int, err error) {
	// Tenancy state first: the repository and instance restores below
	// must be admitted against the checkpointed quota overrides.
	if err := p.loadTenants(dir); err != nil {
		return 0, 0, err
	}
	dps, err = p.LoadRepository(dir, owner)
	if err != nil {
		return dps, 0, err
	}
	data, err := os.ReadFile(filepath.Join(dir, dpiManifest))
	if err != nil {
		if os.IsNotExist(err) {
			return dps, 0, nil
		}
		return dps, 0, fmt.Errorf("elastic: reading checkpoint: %w", err)
	}
	var recs []specRec
	if err := json.Unmarshal(data, &recs); err != nil {
		return dps, 0, fmt.Errorf("elastic: decoding checkpoint: %w", err)
	}
	for _, r := range recs {
		if RestartPolicy(r.Policy) != RestartAlways {
			continue
		}
		spec := InstanceSpec{
			DP:           r.DP,
			Entry:        r.Entry,
			Policy:       RestartAlways,
			Deadline:     time.Duration(r.Deadline) * time.Millisecond,
			StallTimeout: time.Duration(r.Stall) * time.Millisecond,
			Principal:    r.Principal,
		}
		for _, a := range r.Args {
			v, err := decodeArg(a)
			if err != nil {
				return dps, dpis, err
			}
			spec.Args = append(spec.Args, v)
		}
		if _, err := p.InstantiateSpec(owner, spec); err != nil {
			return dps, dpis, fmt.Errorf("elastic: restoring %s/%s: %w", r.DP, r.Entry, err)
		}
		dpis++
	}
	return dps, dpis, nil
}
