package mib

import (
	"errors"
	"testing"

	"mbd/internal/oid"
)

func TestScalarGetNextSet(t *testing.T) {
	tree := &Tree{}
	val := Int(42)
	s := &Scalar{
		Get: func() Value { return val },
		Set: func(v Value) error {
			if v.Kind != KindInteger {
				return ErrBadValue
			}
			val = v
			return nil
		},
	}
	base := oid.MustParse("1.3.6.1.2.1.1.3")
	if err := tree.Mount(base, s); err != nil {
		t.Fatal(err)
	}

	inst := base.Append(0)
	got, err := tree.Get(inst)
	if err != nil || got.Int != 42 {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := tree.Get(base); !errors.Is(err, ErrNoSuchName) {
		t.Fatalf("Get on object OID should be NoSuchName, got %v", err)
	}
	next, v, err := tree.GetNext(base)
	if err != nil || !next.Equal(inst) || v.Int != 42 {
		t.Fatalf("GetNext(%s) = %s, %v, %v", base, next, v, err)
	}
	if _, _, err := tree.GetNext(inst); !errors.Is(err, ErrEndOfMIB) {
		t.Fatalf("GetNext past end = %v", err)
	}
	if err := tree.Set(inst, Int(7)); err != nil {
		t.Fatal(err)
	}
	if got, _ := tree.Get(inst); got.Int != 7 {
		t.Fatalf("Set did not take: %v", got)
	}
	if err := tree.Set(inst, Str("x")); !errors.Is(err, ErrBadValue) {
		t.Fatalf("Set bad value = %v", err)
	}
}

func TestMountOverlapRejected(t *testing.T) {
	tree := &Tree{}
	a := oid.MustParse("1.3.6.1.2.1.1")
	if err := tree.Mount(a, ConstScalar(Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := tree.Mount(a, ConstScalar(Int(2))); err == nil {
		t.Fatal("duplicate mount accepted")
	}
	if err := tree.Mount(a.Append(5), ConstScalar(Int(3))); err == nil {
		t.Fatal("nested mount accepted")
	}
	if err := tree.Mount(oid.MustParse("1.3.6.1.2.1"), ConstScalar(Int(4))); err == nil {
		t.Fatal("ancestor mount accepted")
	}
	if err := tree.Mount(nil, ConstScalar(Int(5))); err == nil {
		t.Fatal("empty mount accepted")
	}
}

func TestTreeGetNextAcrossMounts(t *testing.T) {
	tree := &Tree{}
	a := oid.MustParse("1.3.6.1.2.1.1.1")
	b := oid.MustParse("1.3.6.1.2.1.1.5")
	c := oid.MustParse("1.3.6.1.4.1.45.1")
	for _, m := range []struct {
		p oid.OID
		v Value
	}{{a, Str("A")}, {b, Str("B")}, {c, Str("C")}} {
		if err := tree.Mount(m.p, ConstScalar(m.v)); err != nil {
			t.Fatal(err)
		}
	}
	// Walking from the root visits all three instances in order.
	var seen []string
	n := tree.Walk(oid.MustParse("1"), func(o oid.OID, v Value) bool {
		seen = append(seen, string(v.Bytes))
		return true
	})
	if n != 3 || len(seen) != 3 || seen[0] != "A" || seen[1] != "B" || seen[2] != "C" {
		t.Fatalf("walk = %v (n=%d)", seen, n)
	}
	// GetNext from between mounts lands on the following mount.
	next, v, err := tree.GetNext(a.Append(0))
	if err != nil || !next.Equal(b.Append(0)) || string(v.Bytes) != "B" {
		t.Fatalf("GetNext across mounts = %s, %v, %v", next, v, err)
	}
}

func TestTableColumnMajorWalk(t *testing.T) {
	rows := &MemRows{}
	rows.Upsert(oid.OID{2}, map[uint32]Value{1: Int(2), 3: Str("b")})
	rows.Upsert(oid.OID{1}, map[uint32]Value{1: Int(1), 3: Str("a")})
	tbl := NewTable(rows, 3, 1) // out-of-order columns get sorted

	tree := &Tree{}
	entry := oid.MustParse("1.3.6.1.2.1.99.1")
	if err := tree.Mount(entry, tbl); err != nil {
		t.Fatal(err)
	}
	var order []string
	tree.Walk(entry, func(o oid.OID, v Value) bool {
		rel, _ := o.Index(entry)
		order = append(order, rel.String())
		return true
	})
	want := []string{"1.1", "1.2", "3.1", "3.2"}
	if len(order) != len(want) {
		t.Fatalf("walk visited %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("walk order %v, want %v", order, want)
		}
	}
}

func TestTableRowMutation(t *testing.T) {
	rows := &MemRows{}
	idx := oid.OID{10, 0, 0, 1}
	rows.Upsert(idx, map[uint32]Value{1: Int(5)})
	rows.Upsert(idx, map[uint32]Value{1: Int(6)})
	if v, ok := rows.Cell(1, idx); !ok || v.Int != 6 || rows.Len() != 1 {
		t.Fatalf("Cell = %v, %v after re-upsert of %d rows", v, ok, rows.Len())
	}
	if _, ok := rows.Cell(1, oid.OID{9}); ok {
		t.Fatal("Cell on missing row succeeded")
	}
	if !rows.Delete(idx) || rows.Len() != 0 {
		t.Fatal("Delete failed")
	}
	if rows.Delete(idx) {
		t.Fatal("double Delete succeeded")
	}
}

func TestTableSetCell(t *testing.T) {
	rows := &MemRows{}
	rows.Upsert(oid.OID{1}, map[uint32]Value{2: Int(0)})
	tbl := NewTable(rows, 2)
	tbl.SetCell = func(col uint32, index oid.OID, v Value) error {
		if _, ok := rows.Cell(col, index); !ok {
			return ErrNoSuchName
		}
		rows.Upsert(index, map[uint32]Value{col: v})
		return nil
	}
	tree := &Tree{}
	entry := oid.MustParse("1.3.99.1")
	if err := tree.Mount(entry, tbl); err != nil {
		t.Fatal(err)
	}
	if err := tree.Set(entry.Append(2, 1), Int(77)); err != nil {
		t.Fatal(err)
	}
	if v, _ := tree.Get(entry.Append(2, 1)); v.Int != 77 {
		t.Fatalf("cell = %v", v)
	}
	if err := tree.Set(entry.Append(2, 9), Int(0)); !errors.Is(err, ErrNoSuchName) {
		t.Fatalf("set missing row = %v", err)
	}
}

func TestReadOnlyMount(t *testing.T) {
	tree := &Tree{}
	rows := &MemRows{}
	rows.Upsert(oid.OID{1}, map[uint32]Value{1: Int(1)})
	entry := oid.MustParse("1.3.99.1")
	if err := tree.Mount(entry, NewTable(rows, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tree.Set(entry.Append(1, 1), Int(2)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write to read-only table = %v", err)
	}
	if err := tree.Set(oid.MustParse("9.9.9"), Int(0)); !errors.Is(err, ErrNoSuchName) {
		t.Fatalf("write outside mounts = %v", err)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	rows := &MemRows{}
	for i := uint32(1); i <= 10; i++ {
		rows.Upsert(oid.OID{i}, map[uint32]Value{1: Int(int64(i))})
	}
	tree := &Tree{}
	entry := oid.MustParse("1.3.99.1")
	if err := tree.Mount(entry, NewTable(rows, 1)); err != nil {
		t.Fatal(err)
	}
	count := 0
	n := tree.Walk(entry, func(o oid.OID, v Value) bool {
		count++
		return count < 3
	})
	if n != 3 || count != 3 {
		t.Fatalf("early stop visited %d (returned %d), want 3", count, n)
	}
}

func TestValueHelpers(t *testing.T) {
	if s := Int(-5).String(); s != "-5" {
		t.Errorf("Int string = %q", s)
	}
	if s := IP(10, 0, 0, 1).String(); s != "10.0.0.1" {
		t.Errorf("IP string = %q", s)
	}
	if s := Null().String(); s != "NULL" {
		t.Errorf("Null string = %q", s)
	}
	if Counter32(1<<33).Uint != (1<<33)&0xFFFFFFFF {
		t.Error("Counter32 did not wrap")
	}
	if v := Gauge32(7); v.Kind != KindGauge32 || v.Uint != 7 {
		t.Errorf("Gauge32(7) = %+v", v)
	}
	if v := TimeTicks(100); v.Kind != KindTimeTicks || v.Uint != 100 {
		t.Errorf("TimeTicks(100) = %+v", v)
	}
	if Int(1).String() == Gauge32(1).String() {
		t.Error("an INTEGER and a Gauge32 of the same number must render apart")
	}
	if s := OIDValue(oid.MustParse("1.2")).String(); s != "1.2" {
		t.Errorf("OID string = %q", s)
	}
}
