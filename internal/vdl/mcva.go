package vdl

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mbd/internal/dpl"
	"mbd/internal/mib"
	"mbd/internal/obs"
	"mbd/internal/oid"
)

// OIDViews is the v-mib root under which the MCVA exposes computed
// views (an enterprise arc reserved for this implementation).
var OIDViews = oid.MustParse("1.3.6.1.4.1.424242.1")

// DefaultSnapshotCap bounds an MCVA's retained snapshots. Under
// periodic refresh an unbounded snapshot map is a
// slow leak; evicting least-recently-used entries keeps forensics
// available without growing forever.
const DefaultSnapshotCap = 64

// changeQueueDepth bounds the MCVA's change subscription; on overflow
// the oldest deltas are dropped and the agent resyncs by rescanning
// every mirror.
const changeQueueDepth = 4096

// MCVA is the MIB Computations-of-Views Agent: it holds named view
// definitions, keeps each one materialized by folding MIB change deltas
// into it (see maintain.go), retains immutable snapshots (bounded,
// LRU-evicted), and exposes the views as a virtual MIB subtree so plain
// SNMP managers can read them. Every reader — Query, the DPL bindings,
// the v-mib Handler, the RDS JSON verbs — sees the same maintained
// Result; nothing re-evaluates a view on access.
type MCVA struct {
	tree *mib.Tree
	sub  *mib.ChangeSub

	mu       sync.Mutex
	schema   *Schema
	tables   map[string]*baseTable // by table name
	byEntry  map[string][]*baseTable
	views    map[string]*matview
	order    []string
	lostSeen uint64

	snapshots   map[int64]*Result
	snapLRU     []int64 // ids, least-recently-used first
	snapCap     int
	snapEvicted uint64
	snapSeq     int64

	folded     atomic.Uint64
	recomputes atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// NewMCVA builds an MCVA over the tree and schema and subscribes it to
// the tree's change hub. Close it to detach.
func NewMCVA(tree *mib.Tree, schema *Schema) *MCVA {
	return &MCVA{
		tree:      tree,
		sub:       tree.Changes().Subscribe(changeQueueDepth),
		schema:    schema,
		tables:    make(map[string]*baseTable),
		byEntry:   make(map[string][]*baseTable),
		views:     make(map[string]*matview),
		snapshots: make(map[int64]*Result),
		snapCap:   DefaultSnapshotCap,
	}
}

// Close stops any Start()ed pump and detaches the agent from the
// change hub.
func (m *MCVA) Close() {
	m.Stop()
	m.sub.Close()
}

// Instrument registers the MCVA's metrics on reg.
func (m *MCVA) Instrument(reg *obs.Registry) {
	reg.FuncCounter("vdl_deltas_folded_total",
		"MIB change deltas folded into incrementally-maintained views.", m.folded.Load)
	reg.FuncCounter("vdl_view_recomputes_total",
		"Full view recomputes forced by overflow, errors or schema changes.", m.recomputes.Load)
	reg.FuncCounter("vdl_changes_lost_total",
		"Change events dropped by the bounded subscription queue.", m.sub.Lost)
	reg.FuncCounter("vdl_snapshots_evicted_total",
		"View snapshots discarded by the LRU retention bound.", m.SnapshotsEvicted)
}

// Define parses, installs and materializes a view, replacing any
// previous view of the same name. A definition that cannot be computed
// against the current MIB is refused.
func (m *MCVA) Define(src string) (*ViewDef, error) {
	v, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return v, m.install(v)
}

// DefineAll installs every view in a multi-view VDL document.
func (m *MCVA) DefineAll(src string) ([]*ViewDef, error) {
	defs, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	for _, v := range defs {
		if err := m.install(v); err != nil {
			return nil, fmt.Errorf("view %s: %w", v.Name, err)
		}
	}
	return defs, nil
}

func (m *MCVA) install(v *ViewDef) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pumpLocked()
	left, err := m.ensureTableLocked(v.From.Table)
	if err != nil {
		return err
	}
	var right *baseTable
	if v.Join != nil {
		if right, err = m.ensureTableLocked(v.Join.Right.Table); err != nil {
			return err
		}
	}
	mv := newMatview(v, left, right)
	if err := mv.rebuild(); err != nil {
		return err
	}
	if _, err := mv.result(); err != nil {
		return err
	}
	if old := m.views[v.Name]; old != nil {
		m.dropUsesLocked(old)
	} else {
		m.order = append(m.order, v.Name)
	}
	m.views[v.Name] = mv
	if mv.selfJoin {
		left.views = append(left.views, &tableUse{mv: mv, side: -1})
	} else {
		left.views = append(left.views, &tableUse{mv: mv, side: 0})
		if right != nil {
			right.views = append(right.views, &tableUse{mv: mv, side: 1})
		}
	}
	return nil
}

// Views lists installed view names in definition order.
func (m *MCVA) Views() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.order))
	copy(out, m.order)
	return out
}

// Query folds any pending deltas and returns the named view's current
// result. Broken views are repaired by a counted full recompute. The
// returned Result is shared and must not be mutated.
func (m *MCVA) Query(name string) (*Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pumpLocked()
	return m.queryLocked(name)
}

func (m *MCVA) queryLocked(name string) (*Result, error) {
	mv, ok := m.views[name]
	if !ok {
		return nil, fmt.Errorf("vdl: no view %q", name)
	}
	if mv.broken || mv.needRebuild {
		m.recomputes.Add(1)
		mv.recomputes++
		if err := mv.rebuild(); err != nil {
			return nil, err
		}
	}
	return mv.result()
}

// SnapshotsEvicted returns how many snapshots the LRU bound has
// discarded.
func (m *MCVA) SnapshotsEvicted() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapEvicted
}

// evictLocked drops least-recently-used snapshots until within cap.
// Callers hold m.mu.
func (m *MCVA) evictLocked() {
	for len(m.snapshots) > m.snapCap && len(m.snapLRU) > 0 {
		id := m.snapLRU[0]
		m.snapLRU = m.snapLRU[1:]
		if _, ok := m.snapshots[id]; ok {
			delete(m.snapshots, id)
			m.snapEvicted++
		}
	}
}

// touchLocked moves id to the most-recently-used end of the LRU order.
// Callers hold m.mu.
func (m *MCVA) touchLocked(id int64) {
	for i, x := range m.snapLRU {
		if x == id {
			m.snapLRU = append(append(m.snapLRU[:i:i], m.snapLRU[i+1:]...), id)
			return
		}
	}
	m.snapLRU = append(m.snapLRU, id)
}

// Snapshot retains the named view's current result immutably,
// returning its id. "View Snapshots ... provide an instantaneous copy
// of the values of a collection of mib variables." Results are never
// mutated once rendered, so a snapshot shares the maintained one.
func (m *MCVA) Snapshot(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pumpLocked()
	res, err := m.queryLocked(name)
	if err != nil {
		return 0, err
	}
	m.snapSeq++
	m.snapshots[m.snapSeq] = res
	m.touchLocked(m.snapSeq)
	m.evictLocked()
	return m.snapSeq, nil
}

// SnapshotResult fetches a retained snapshot by id.
func (m *MCVA) SnapshotResult(id int64) (*Result, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.snapshots[id]
	if ok {
		m.touchLocked(id)
	}
	return r, ok
}

// DropSnapshot releases a snapshot.
func (m *MCVA) DropSnapshot(id int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.snapshots[id]; !ok {
		return false
	}
	delete(m.snapshots, id)
	for i, x := range m.snapLRU {
		if x == id {
			m.snapLRU = append(m.snapLRU[:i], m.snapLRU[i+1:]...)
			break
		}
	}
	return true
}

// Bindings returns the host functions the MCVA contributes to the MbD
// server's allowed set, so delegated programs can define and query
// views:
//
//	viewDefine(src)      install a view; returns its name
//	viewQuery(name)      current rows; returns array of row arrays
//	viewSnapshot(name)   retain the current rows; returns snapshot id
//	snapshotRows(id)     rows of a retained snapshot
//	snapshotDrop(id)     release a snapshot; returns true if it existed
func (m *MCVA) Bindings() *dpl.Bindings {
	b := dpl.NewBindings()
	rowsToDPL := func(res *Result) dpl.Value {
		var cells []dpl.Value
		for _, r := range res.Rows {
			for _, c := range r.Cells {
				v, _ := dpl.FromGo(c) // cells are nil, bool, int64, float64 or string
				cells = append(cells, v)
			}
		}
		return dpl.Rows(cells, len(res.Rows))
	}
	b.Register("viewDefine", 1, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		src, ok := args[0].AsString()
		if !ok {
			return dpl.Value{}, fmt.Errorf("vdl: viewDefine wants a string")
		}
		v, err := m.Define(src)
		if err != nil {
			return dpl.Value{}, err
		}
		return dpl.Str(v.Name), nil
	})
	b.Register("viewQuery", 1, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		name, ok := args[0].AsString()
		if !ok {
			return dpl.Value{}, fmt.Errorf("vdl: viewQuery wants a string")
		}
		res, err := m.Query(name)
		if err != nil {
			return dpl.Value{}, err
		}
		return rowsToDPL(res), nil
	})
	b.Register("viewSnapshot", 1, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		name, ok := args[0].AsString()
		if !ok {
			return dpl.Value{}, fmt.Errorf("vdl: viewSnapshot wants a string")
		}
		id, err := m.Snapshot(name)
		return dpl.Int(id), err
	})
	b.Register("snapshotRows", 1, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		id, ok := args[0].AsInt()
		if !ok {
			return dpl.Value{}, fmt.Errorf("vdl: snapshotRows wants an id")
		}
		res, ok := m.SnapshotResult(id)
		if !ok {
			return dpl.Value{}, fmt.Errorf("vdl: no snapshot %d", id)
		}
		return rowsToDPL(res), nil
	})
	b.Register("snapshotDrop", 1, func(env *dpl.Env, args []dpl.Value) (dpl.Value, error) {
		id, ok := args[0].AsInt()
		if !ok {
			return dpl.Value{}, fmt.Errorf("vdl: snapshotDrop wants an id")
		}
		return dpl.Bool(m.DropSnapshot(id)), nil
	})
	return b
}
