package mib

import (
	"sort"
	"sync"
	"sync/atomic"

	"mbd/internal/oid"
)

// RowSource supplies the dynamic contents of a conceptual table. The
// MIB layer imposes SMI addressing (column-major walk order) on top.
//
// Implementations must be safe for concurrent use.
type RowSource interface {
	// Rows returns the index OIDs of all conceptual rows in ascending
	// lexicographic order. Callers must not mutate the result; sources
	// are encouraged to return a shared immutable snapshot rather than
	// a fresh copy, since Rows sits on the GetNext hot path.
	Rows() []oid.OID
	// Cell returns the value at (column, index) if the row exists and
	// the column is populated for it.
	Cell(col uint32, index oid.OID) (Value, bool)
}

// Table is a Handler serving an SMI conceptual table. Mount it at the
// table's *entry* OID (for example ifEntry, 1.3.6.1.2.1.2.2.1);
// instances are then addressed as column.index, and GetNext follows
// SNMP's column-major order: every row of column c1, then every row of
// column c2, and so on.
type Table struct {
	// Columns lists the populated column numbers in ascending order.
	Columns []uint32
	// Source provides row data.
	Source RowSource
	// SetCell, when non-nil, accepts writes to cells.
	SetCell func(col uint32, index oid.OID, v Value) error
}

// NewTable returns a Table over the given ascending column numbers.
func NewTable(src RowSource, cols ...uint32) *Table {
	sorted := make([]uint32, len(cols))
	copy(sorted, cols)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return &Table{Columns: sorted, Source: src}
}

// GetRel implements Handler.
func (t *Table) GetRel(rel oid.OID) (Value, bool) {
	if len(rel) < 2 {
		return Value{}, false
	}
	return t.Source.Cell(rel[0], rel[1:])
}

// start locates the column-major position demanded by rel: the index
// of the first candidate column in t.Columns and the row position
// within it (rows[pos] is the first candidate row of that column).
func (t *Table) start(rel oid.OID, rows []oid.OID) (colIdx, pos int) {
	for ci, col := range t.Columns {
		switch {
		case len(rel) == 0 || rel[0] < col:
			return ci, 0
		case rel[0] == col:
			startIdx := rel[1:]
			if len(startIdx) == 0 {
				return ci, 0
			}
			// Rows are sorted; binary-search the first index > startIdx.
			return ci, sort.Search(len(rows), func(i int) bool {
				return rows[i].Compare(startIdx) > 0
			})
		}
	}
	return len(t.Columns), 0
}

// NextRel implements Handler.
func (t *Table) NextRel(rel oid.OID) (oid.OID, Value, bool) {
	next, v, ok := t.AppendNextRel(nil, rel)
	return next, v, ok
}

// AppendNextRel implements AppendNexter.
func (t *Table) AppendNextRel(dst oid.OID, rel oid.OID) (oid.OID, Value, bool) {
	rows := t.Source.Rows()
	if len(rows) == 0 || len(t.Columns) == 0 {
		return nil, Value{}, false
	}
	ci, pos := t.start(rel, rows)
	for ; ci < len(t.Columns); ci, pos = ci+1, 0 {
		col := t.Columns[ci]
		for _, idx := range rows[pos:] {
			if v, ok := t.Source.Cell(col, idx); ok {
				return append(append(dst, col), idx...), v, true
			}
		}
	}
	return nil, Value{}, false
}

// PosCeller is an optional RowSource extension for bulk enumeration:
// the cell is addressed by its row's position in the snapshot most
// recently returned by Rows, letting a column-major sweep skip the
// per-cell index search. Implementations must verify that pos still
// names index (membership may have changed concurrently) and fall back
// to a search when it does not.
type PosCeller interface {
	CellAt(col uint32, pos int, index oid.OID) (Value, bool)
}

// NextRelN implements BulkHandler: one Rows snapshot and one position
// search serve the entire enumeration, instead of re-fetching and
// re-searching per instance as a GetNext loop does.
func (t *Table) NextRelN(rel oid.OID, max int, visit func(rel oid.OID, v Value) bool) int {
	rows := t.Source.Rows()
	if len(rows) == 0 || len(t.Columns) == 0 {
		return 0
	}
	pc, byPos := t.Source.(PosCeller)
	var buf oid.OID // reused col.index scratch
	n := 0
	ci, pos := t.start(rel, rows)
	for ; ci < len(t.Columns); ci, pos = ci+1, 0 {
		col := t.Columns[ci]
		for ri, idx := range rows[pos:] {
			var v Value
			var ok bool
			if byPos {
				v, ok = pc.CellAt(col, pos+ri, idx)
			} else {
				v, ok = t.Source.Cell(col, idx)
			}
			if !ok {
				continue
			}
			buf = append(append(buf[:0], col), idx...)
			n++
			if !visit(buf, v) {
				return n
			}
			if max > 0 && n >= max {
				return n
			}
		}
	}
	return n
}

// SetRel implements Setter.
func (t *Table) SetRel(rel oid.OID, v Value) error {
	if len(rel) < 2 {
		return ErrNoSuchName
	}
	if t.SetCell == nil {
		return ErrReadOnly
	}
	return t.SetCell(rel[0], rel[1:], v)
}

// memRow is one MemRows row: its index and cell values.
type memRow struct {
	index oid.OID
	cells map[uint32]Value
}

// MemRows is an in-memory RowSource backed by a sorted row list. The
// zero value is an empty source ready for use.
//
// Row membership is copy-on-write: Rows returns a shared immutable
// snapshot (no per-call copy), and cell lookups binary-search the
// sorted row list instead of hashing a rendered string key — both
// matter on the GetNext hot path, where a walk over an N-row table
// would otherwise copy the index N times.
type MemRows struct {
	mu    sync.RWMutex
	rows  []memRow  // sorted by index; slice replaced on membership change
	index []oid.OID // immutable snapshot, same order as rows

	watch atomic.Pointer[changeTarget] // optional mutation publication
}

// search returns the position of index in rows, and whether it is
// present. Callers hold m.mu.
func search(rows []memRow, index oid.OID) (int, bool) {
	pos := sort.Search(len(rows), func(i int) bool {
		return rows[i].index.Compare(index) >= 0
	})
	return pos, pos < len(rows) && rows[pos].index.Equal(index)
}

// Upsert creates or replaces a row's cell values.
func (m *MemRows) Upsert(index oid.OID, cells map[uint32]Value) {
	row := make(map[uint32]Value, len(cells))
	for c, v := range cells {
		row[c] = v
	}
	m.mu.Lock()
	pos, found := search(m.rows, index)
	if found {
		m.rows[pos].cells = row
	} else {
		idx := index.Clone()
		rows := make([]memRow, 0, len(m.rows)+1)
		rows = append(rows, m.rows[:pos]...)
		rows = append(rows, memRow{index: idx, cells: row})
		rows = append(rows, m.rows[pos:]...)
		snap := make([]oid.OID, 0, len(m.index)+1)
		snap = append(snap, m.index[:pos]...)
		snap = append(snap, idx)
		snap = append(snap, m.index[pos:]...)
		m.rows, m.index = rows, snap
	}
	m.mu.Unlock()
	m.publish(ChangeRow, 0, index)
}

// Delete removes a row, reporting whether it existed.
func (m *MemRows) Delete(index oid.OID) bool {
	m.mu.Lock()
	pos, found := search(m.rows, index)
	if found {
		rows := make([]memRow, 0, len(m.rows)-1)
		rows = append(rows, m.rows[:pos]...)
		rows = append(rows, m.rows[pos+1:]...)
		snap := make([]oid.OID, 0, len(m.index)-1)
		snap = append(snap, m.index[:pos]...)
		snap = append(snap, m.index[pos+1:]...)
		m.rows, m.index = rows, snap
	}
	m.mu.Unlock()
	if found {
		m.publish(ChangeDrop, 0, index)
	}
	return found
}

// Len returns the number of rows.
func (m *MemRows) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.rows)
}

// Rows implements RowSource. The returned slice is an immutable shared
// snapshot; callers must not mutate it.
func (m *MemRows) Rows() []oid.OID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.index
}

// Cell implements RowSource.
func (m *MemRows) Cell(col uint32, index oid.OID) (Value, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	pos, found := search(m.rows, index)
	if !found {
		return Value{}, false
	}
	v, ok := m.rows[pos].cells[col]
	return v, ok
}

// CellAt implements PosCeller: when pos still names index (the common
// case — membership unchanged since the Rows snapshot) the row is
// reached without any search.
func (m *MemRows) CellAt(col uint32, pos int, index oid.OID) (Value, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if pos >= len(m.rows) || !m.rows[pos].index.Equal(index) {
		var found bool
		if pos, found = search(m.rows, index); !found {
			return Value{}, false
		}
	}
	v, ok := m.rows[pos].cells[col]
	return v, ok
}
