package vdl

import (
	"mbd/internal/mib"
	"mbd/internal/oid"
)

// Handler returns a mib.Handler exposing the maintained views as v-mib
// objects. Mount it at OIDViews. Instances are addressed
// viewIndex.column.row (1-based, views in definition order). Every read
// folds pending deltas first, so SNMP managers see current data; none
// re-evaluates a view, and a successor is found from the position alone.
func (m *MCVA) Handler() mib.Handler { return viewHandler{m} }

type viewHandler struct{ m *MCVA }

// results folds pending deltas and returns every view's current result
// in definition order. A view that cannot be computed exposes no
// instances.
func (m *MCVA) results() []*Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pumpLocked()
	out := make([]*Result, len(m.order))
	for i, name := range m.order {
		res, err := m.queryLocked(name)
		if err != nil {
			res = &Result{View: name}
		}
		out[i] = res
	}
	return out
}

// after maps rel to the (view, column, row) lower bound of its strict
// successors. Instances are exactly three arcs long, so a shorter rel
// precedes every instance it prefixes and a longer one precedes the
// next row.
func after(rel oid.OID) (vi, ci, ri uint64) {
	switch {
	case len(rel) == 0 || rel[0] == 0:
		return 1, 1, 1
	case len(rel) == 1 || rel[1] == 0:
		return uint64(rel[0]), 1, 1
	case len(rel) == 2:
		return uint64(rel[0]), uint64(rel[1]), 1
	}
	return uint64(rel[0]), uint64(rel[1]), uint64(rel[2]) + 1
}

// settle advances the lower bound (vi, ci, ri) to the first cell that
// exists: past a column's last row comes the next column, past a view's
// last column (or an empty view) the next view.
func settle(all []*Result, vi, ci, ri uint64) (uint64, uint64, uint64, bool) {
	for ; vi <= uint64(len(all)); vi, ci, ri = vi+1, 1, 1 {
		res := all[vi-1]
		if ri > uint64(len(res.Rows)) {
			ci, ri = ci+1, 1
		}
		if len(res.Rows) > 0 && ci <= uint64(len(res.Columns)) {
			return vi, ci, ri, true
		}
	}
	return 0, 0, 0, false
}

// GetRel implements mib.Handler.
func (h viewHandler) GetRel(rel oid.OID) (mib.Value, bool) {
	if len(rel) != 3 || rel[0] == 0 || rel[1] == 0 || rel[2] == 0 {
		return mib.Value{}, false
	}
	all := h.m.results()
	if int(rel[0]) > len(all) {
		return mib.Value{}, false
	}
	res := all[rel[0]-1]
	if int(rel[1]) > len(res.Columns) || int(rel[2]) > len(res.Rows) {
		return mib.Value{}, false
	}
	return toSMI(res.Rows[rel[2]-1].Cells[rel[1]-1]), true
}

// NextRel implements mib.Handler.
func (h viewHandler) NextRel(rel oid.OID) (oid.OID, mib.Value, bool) {
	return h.AppendNextRel(nil, rel)
}

// AppendNextRel implements mib.AppendNexter.
func (h viewHandler) AppendNextRel(dst, rel oid.OID) (oid.OID, mib.Value, bool) {
	all := h.m.results()
	vi, ci, ri := after(rel)
	vi, ci, ri, ok := settle(all, vi, ci, ri)
	if !ok {
		return nil, mib.Value{}, false
	}
	return append(dst, uint32(vi), uint32(ci), uint32(ri)), toSMI(all[vi-1].Rows[ri-1].Cells[ci-1]), true
}

// NextRelN implements mib.BulkHandler: the results are read once, so a
// subtree walk is one pass over the maintained cells.
func (h viewHandler) NextRelN(rel oid.OID, max int, visit func(rel oid.OID, v mib.Value) bool) int {
	all := h.m.results()
	var buf [3]uint32
	n := 0
	for vi, ci, ri := after(rel); ; ri++ {
		var ok bool
		if vi, ci, ri, ok = settle(all, vi, ci, ri); !ok {
			return n
		}
		n++
		buf = [3]uint32{uint32(vi), uint32(ci), uint32(ri)}
		if !visit(buf[:], toSMI(all[vi-1].Rows[ri-1].Cells[ci-1])) || n == max {
			return n
		}
	}
}
