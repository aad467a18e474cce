package vdl

import (
	"encoding/json"
	"fmt"

	"mbd/internal/mib"
	"mbd/internal/oid"
)

// This file is the MCVA's maintenance side. The agent subscribes to the
// tree's change-capture hub, mirrors each base table once, and folds
// every MIB write into the affected views with O(delta) work:
// selections re-check one row, joins consult per-key index maps, and
// aggregates add/retract with decline-and-recombine for the
// non-invertible cases (min/max retractions, float sums). Results are
// byte-identical to a from-scratch Eval; on subscription overflow,
// evaluation errors, or self-join changes a view falls back to a full
// recompute, counted in vdl_view_recomputes_total.

// Pump drains pending change events into the maintained views,
// returning how many row deltas were folded.
func (m *MCVA) Pump() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pumpLocked()
}

func (m *MCVA) pumpLocked() int {
	if lost := m.sub.Lost(); lost != m.lostSeen {
		m.lostSeen = lost
		for {
			if _, ok := m.sub.Next(); !ok {
				break
			}
		}
		m.resyncLocked()
		return 0
	}
	n := 0
	for {
		c, ok := m.sub.Next()
		if !ok {
			return n
		}
		n += m.applyLocked(c)
	}
}

// resyncLocked rescans every mirror and schedules every view for a
// full recompute — the overflow fallback.
func (m *MCVA) resyncLocked() {
	for _, t := range m.tables {
		t.rows = t.scan(m.tree)
		t.orderCache = nil
	}
	for _, mv := range m.views {
		if !mv.broken && !mv.needRebuild {
			mv.needRebuild = true
		}
		mv.cached = nil
	}
}

// applyLocked folds one change event into every table mirroring its
// entry, returning the number of row deltas it produced.
func (m *MCVA) applyLocked(c mib.Change) int {
	tabs := m.byEntry[c.Table.String()]
	if len(tabs) == 0 {
		return 0
	}
	n := 0
	for _, t := range tabs {
		if c.Kind == mib.ChangeReset || len(c.Index) == 0 {
			n += m.diffTableLocked(t)
		} else {
			n += m.refreshRowLocked(t, c.Index)
		}
	}
	return n
}

// refreshRowLocked re-reads one row from the tree and, if it differs
// from the mirror, dispatches the delta to every dependent view.
func (m *MCVA) refreshRowLocked(t *baseTable, index oid.OID) int {
	key := index.String()
	old := t.rows[key]
	cur := t.readRow(m.tree, index)
	if old == nil && cur == nil {
		return 0
	}
	if old != nil && cur != nil && sameCells(old, cur) {
		return 0
	}
	m.applyRowLocked(t, key, old, cur)
	return 1
}

func (m *MCVA) applyRowLocked(t *baseTable, key string, old, cur *brow) {
	if cur != nil {
		t.rows[key] = cur
	} else {
		delete(t.rows, key)
	}
	if old == nil || cur == nil || !sameColumns(old, cur) {
		t.orderCache = nil
	}
	for _, use := range t.views {
		use.mv.cached = nil
		use.mv.rowDelta(use.side, old, cur)
	}
	m.folded.Add(1)
}

// diffTableLocked rescans a whole table (ChangeReset events — e.g. the
// federation rollup, whose 1-based row positions shift on any change)
// and folds the per-row differences.
func (m *MCVA) diffTableLocked(t *baseTable) int {
	fresh := t.scan(m.tree)
	type rowChange struct {
		key      string
		old, cur *brow
	}
	var changes []rowChange
	for key, old := range t.rows {
		cur := fresh[key]
		if cur == nil || !sameCells(old, cur) {
			changes = append(changes, rowChange{key, old, cur})
		}
	}
	for key, cur := range fresh {
		if t.rows[key] == nil {
			changes = append(changes, rowChange{key, nil, cur})
		}
	}
	for _, ch := range changes {
		m.applyRowLocked(t, ch.key, ch.old, ch.cur)
	}
	return len(changes)
}

// ensureTableLocked returns the mirror for a schema table, scanning it
// on first use.
func (m *MCVA) ensureTableLocked(name string) (*baseTable, error) {
	if t, ok := m.tables[name]; ok {
		return t, nil
	}
	ts, ok := m.schema.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("vdl: unknown table %q", name)
	}
	t := newBaseTable(ts)
	t.rows = t.scan(m.tree)
	m.tables[name] = t
	m.byEntry[ts.Entry.String()] = append(m.byEntry[ts.Entry.String()], t)
	return t, nil
}

// dropUsesLocked unlinks a replaced view from its table mirrors.
func (m *MCVA) dropUsesLocked(mv *matview) {
	for _, t := range m.tables {
		kept := t.views[:0]
		for _, use := range t.views {
			if use.mv != mv {
				kept = append(kept, use)
			}
		}
		t.views = kept
	}
}

// Start launches a background pump that folds deltas as they arrive,
// keeping views continuously materialized between queries.
func (m *MCVA) Start() {
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.stop, m.done = stop, done
	m.mu.Unlock()
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case c := <-m.sub.C():
				m.mu.Lock()
				m.applyLocked(c)
				m.pumpLocked()
				m.mu.Unlock()
			}
		}
	}()
}

// Stop halts the background pump (if running).
func (m *MCVA) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Stats reports the engine's maintenance counters.
type Stats struct {
	Views        int    `json:"views"`
	DeltasFolded uint64 `json:"deltas_folded"`
	Recomputes   uint64 `json:"recomputes"`
	ChangesLost  uint64 `json:"changes_lost"`
}

// Stats returns current counters.
func (m *MCVA) Stats() Stats {
	m.mu.Lock()
	n := len(m.views)
	m.mu.Unlock()
	return Stats{
		Views:        n,
		DeltasFolded: m.folded.Load(),
		Recomputes:   m.recomputes.Load(),
		ChangesLost:  m.sub.Lost(),
	}
}

// ViewStatus describes one maintained view for management clients.
type ViewStatus struct {
	Name       string   `json:"name"`
	Columns    []string `json:"columns"`
	Rows       int      `json:"rows"`
	BaseRows   int      `json:"base_rows"`
	Recomputes uint64   `json:"recomputes"`
	Error      string   `json:"error,omitempty"`
	Source     string   `json:"source,omitempty"`
}

// Status reports every maintained view after folding pending deltas.
func (m *MCVA) Status() []ViewStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pumpLocked()
	out := make([]ViewStatus, 0, len(m.order))
	for _, name := range m.order {
		mv := m.views[name]
		st := ViewStatus{Name: name, Source: mv.def.Source}
		for _, s := range mv.def.Select {
			st.Columns = append(st.Columns, s.Name)
		}
		if res, err := m.queryLocked(name); err != nil {
			st.Error = err.Error()
		} else {
			st.Rows = len(res.Rows)
			st.BaseRows = res.BaseRows
		}
		st.Recomputes = mv.recomputes // after the query: it may have repaired the view
		out = append(out, st)
	}
	return out
}

// StatusJSON renders engine status for the RDS view op.
func (m *MCVA) StatusJSON() ([]byte, error) {
	type payload struct {
		Views []ViewStatus `json:"views"`
		Stats Stats        `json:"stats"`
	}
	return json.Marshal(payload{Views: m.Status(), Stats: m.Stats()})
}

// DefineJSON installs a view from VDL source and renders its
// definition for the RDS view op.
func (m *MCVA) DefineJSON(src string) ([]byte, error) {
	v, err := m.Define(src)
	if err != nil {
		return nil, err
	}
	cols := make([]string, 0, len(v.Select))
	for _, s := range v.Select {
		cols = append(cols, s.Name)
	}
	type payload struct {
		Name    string   `json:"name"`
		Columns []string `json:"columns"`
	}
	return json.Marshal(payload{Name: v.Name, Columns: cols})
}

// QueryJSON renders one view's current rows for the RDS view op.
func (m *MCVA) QueryJSON(name string) ([]byte, error) {
	res, err := m.Query(name)
	if err != nil {
		return nil, err
	}
	type payload struct {
		View     string   `json:"view"`
		Columns  []string `json:"columns"`
		Rows     [][]any  `json:"rows"`
		BaseRows int      `json:"base_rows"`
	}
	p := payload{View: res.View, Columns: res.Columns, BaseRows: res.BaseRows, Rows: make([][]any, 0, len(res.Rows))}
	for _, r := range res.Rows {
		p.Rows = append(p.Rows, r.Cells)
	}
	return json.Marshal(p)
}
