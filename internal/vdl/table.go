package vdl

import (
	"sort"

	"mbd/internal/mib"
	"mbd/internal/oid"
)

// brow is one mirrored base-table row.
type brow struct {
	key   string // index.String(), the map key
	index oid.OID
	cells map[string]Value // column name → value
}

// colDef pairs a schema column name with its number.
type colDef struct {
	name string
	num  uint32
}

// tableUse records that a view ranges over a table on one side.
type tableUse struct {
	mv   *matview
	side int // 0 = from (left), 1 = join (right)
}

// baseTable is an in-memory mirror of one schema table, maintained
// row-by-row from change-capture events. It is shared by every view
// ranging over the table.
type baseTable struct {
	schema TableSchema
	cols   []colDef // ascending column number, schema-known only
	rows   map[string]*brow

	// orderCache holds row keys in the evaluator's materialize order
	// (column-major first-seen, which the full Eval walk produces); nil
	// means it must be recomputed. Invalidated on membership or
	// column-presence changes, not on plain value changes.
	orderCache []string

	views []*tableUse
}

func newBaseTable(ts TableSchema) *baseTable {
	t := &baseTable{schema: ts, rows: make(map[string]*brow)}
	for name, num := range ts.Columns {
		t.cols = append(t.cols, colDef{name: name, num: num})
	}
	sort.Slice(t.cols, func(i, j int) bool { return t.cols[i].num < t.cols[j].num })
	return t
}

// scan walks the live tree and returns a fresh row map for this table.
func (t *baseTable) scan(tree *mib.Tree) map[string]*brow {
	rows := make(map[string]*brow)
	colName := make(map[uint32]string, len(t.cols))
	for _, c := range t.cols {
		colName[c.num] = c.name
	}
	tree.Walk(t.schema.Entry, func(o oid.OID, v mib.Value) bool {
		rel, ok := o.Index(t.schema.Entry)
		if !ok || len(rel) < 2 {
			return true
		}
		name, known := colName[rel[0]]
		if !known {
			return true
		}
		idx := rel[1:]
		key := idx.String()
		r := rows[key]
		if r == nil {
			r = &brow{key: key, index: idx.Clone(), cells: make(map[string]Value)}
			rows[key] = r
		}
		r.cells[name] = fromSMI(v)
		return true
	})
	return rows
}

// readRow fetches one row's current cells straight from the tree (one
// Get per schema column — O(columns), independent of table size).
// Returns nil when the row no longer exists.
func (t *baseTable) readRow(tree *mib.Tree, index oid.OID) *brow {
	var cells map[string]Value
	buf := make(oid.OID, 0, len(t.schema.Entry)+1+len(index))
	for _, c := range t.cols {
		buf = append(append(append(buf[:0], t.schema.Entry...), c.num), index...)
		v, err := tree.Get(buf)
		if err != nil {
			continue
		}
		if cells == nil {
			cells = make(map[string]Value, len(t.cols))
		}
		cells[c.name] = fromSMI(v)
	}
	if cells == nil {
		return nil
	}
	return &brow{key: index.String(), index: index.Clone(), cells: cells}
}

// orderKeys returns row keys in the evaluator's materialize order:
// walking columns in ascending number, rows in ascending index order,
// keeping the first occurrence of each row. This reproduces the order
// a full-tree Eval sees, so incrementally-built results are
// byte-identical to recomputed ones.
func (t *baseTable) orderKeys() []string {
	if t.orderCache != nil {
		return t.orderCache
	}
	sorted := make([]*brow, 0, len(t.rows))
	for _, r := range t.rows {
		sorted = append(sorted, r)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].index.Compare(sorted[j].index) < 0 })
	seen := make(map[string]bool, len(sorted))
	out := make([]string, 0, len(sorted))
	for _, c := range t.cols {
		for _, r := range sorted {
			if seen[r.key] {
				continue
			}
			if _, ok := r.cells[c.name]; ok {
				seen[r.key] = true
				out = append(out, r.key)
			}
		}
	}
	t.orderCache = out
	return out
}

// sameColumns reports whether two rows populate the same column set.
func sameColumns(a, b *brow) bool {
	if len(a.cells) != len(b.cells) {
		return false
	}
	for k := range a.cells {
		if _, ok := b.cells[k]; !ok {
			return false
		}
	}
	return true
}

// sameCells reports whether two rows hold identical values. All values
// in the evaluation domain are comparable (nil, bool, int64, float64,
// string).
func sameCells(a, b *brow) bool {
	if len(a.cells) != len(b.cells) {
		return false
	}
	for k, v := range a.cells {
		w, ok := b.cells[k]
		if !ok || w != v {
			return false
		}
	}
	return true
}
