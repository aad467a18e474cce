package mib

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mbd/internal/oid"
)

// SNMP-compatible error conditions surfaced by Tree operations.
//
// Miss paths return these sentinels directly (not wrapped with the
// offending OID): a Get that misses is a routine, high-frequency event
// on the hot path, and callers that want the OID in a message already
// hold it. Use errors.Is for classification as before.
var (
	// ErrNoSuchName reports that the requested instance does not exist.
	ErrNoSuchName = errors.New("mib: no such name")
	// ErrEndOfMIB reports that GetNext walked past the last instance.
	ErrEndOfMIB = errors.New("mib: end of MIB view")
	// ErrReadOnly reports a Set on a non-writable instance.
	ErrReadOnly = errors.New("mib: read-only")
	// ErrBadValue reports a Set with an unacceptable value.
	ErrBadValue = errors.New("mib: bad value")
)

// Handler serves a subtree of instances. All OIDs passed to a Handler
// are relative to its mount prefix.
//
// Implementations must be safe for concurrent use; the Tree serializes
// mount mutations but not data access.
type Handler interface {
	// GetRel returns the value of the instance at rel, if it exists.
	GetRel(rel oid.OID) (Value, bool)
	// NextRel returns the first instance strictly greater than rel in
	// lexicographic order, with its value. A nil rel means "before the
	// first instance".
	NextRel(rel oid.OID) (oid.OID, Value, bool)
}

// Setter is implemented by handlers that accept writes.
type Setter interface {
	// SetRel writes the instance at rel. It returns ErrNoSuchName,
	// ErrReadOnly or ErrBadValue on failure.
	SetRel(rel oid.OID, v Value) error
}

// AppendNexter is an optional Handler extension for the allocation-free
// GetNext path: the successor's relative OID is appended to a
// caller-supplied buffer instead of being freshly allocated.
type AppendNexter interface {
	// AppendNextRel appends the relative OID of the first instance
	// strictly greater than rel to dst and returns the extended slice
	// with the instance's value. A false ok leaves dst's contents
	// unspecified beyond its original length.
	AppendNextRel(dst oid.OID, rel oid.OID) (oid.OID, Value, bool)
}

// BulkHandler is an optional Handler extension for subtree walks: the
// handler enumerates many successors in one call, avoiding the
// per-instance dispatch and re-search that a GetNext loop pays.
type BulkHandler interface {
	// NextRelN visits up to max instances strictly greater than rel in
	// lexicographic order (max <= 0 means no limit), calling visit for
	// each. The rel OID passed to visit is only valid for the duration
	// of the call; clone it to retain it. Enumeration stops early when
	// visit returns false. NextRelN returns the number of instances
	// visited.
	NextRelN(rel oid.OID, max int, visit func(rel oid.OID, v Value) bool) int
}

type mount struct {
	prefix oid.OID
	h      Handler
}

// Tree is a management information base assembled from handlers
// mounted at disjoint OID prefixes. It dispatches SNMP-style Get,
// GetNext and Set operations and supports full-subtree walks.
//
// The mount table is an immutable sorted slice behind an atomic
// pointer: data-path operations (Get, GetNext, Set, Walk) load it once
// and binary-search it without taking any lock; Mount and Unmount
// replace the whole table under a mutation mutex (copy-on-mount).
//
// The zero value is an empty tree ready for use.
type Tree struct {
	mountMu sync.Mutex // serializes Mount/Unmount
	mounts  atomic.Pointer[[]mount]

	stats   treeCounters
	changes ChangeHub
}

// Changes returns the tree's change-capture hub. Data sources mounted
// in the tree publish row/cell mutations into it; Set dispatches are
// published automatically. With no subscribers the publication paths
// cost one atomic load — see ChangeHub.
func (t *Tree) Changes() *ChangeHub { return &t.changes }

// treeCounters tallies data-path operations with lock-free atomics; a
// single uncontended add per operation keeps the dispatch hot path
// allocation-free and within the bench gate's budget.
type treeCounters struct {
	gets        atomic.Uint64
	getNexts    atomic.Uint64
	sets        atomic.Uint64
	walks       atomic.Uint64
	walkVisited atomic.Uint64
}

// TreeStats counts data-path operations since the tree was created.
type TreeStats struct {
	// Gets, GetNexts and Sets count Get/GetNextInto/Set dispatches
	// (misses included).
	Gets     uint64
	GetNexts uint64
	Sets     uint64
	// Walks counts Walk/WalkFrom calls; WalkVisited sums the instances
	// they visited.
	Walks       uint64
	WalkVisited uint64
}

// Stats returns a snapshot of the tree's operation counters.
func (t *Tree) Stats() TreeStats {
	return TreeStats{
		Gets:        t.stats.gets.Load(),
		GetNexts:    t.stats.getNexts.Load(),
		Sets:        t.stats.sets.Load(),
		Walks:       t.stats.walks.Load(),
		WalkVisited: t.stats.walkVisited.Load(),
	}
}

// load returns the current mount table (possibly nil).
func (t *Tree) load() []mount {
	if p := t.mounts.Load(); p != nil {
		return *p
	}
	return nil
}

// Mount attaches h at prefix. Prefixes must not be nested or equal;
// overlapping mounts return an error.
func (t *Tree) Mount(prefix oid.OID, h Handler) error {
	if len(prefix) == 0 {
		return errors.New("mib: cannot mount at empty prefix")
	}
	if h == nil {
		return errors.New("mib: nil handler")
	}
	t.mountMu.Lock()
	defer t.mountMu.Unlock()
	cur := t.load()
	for _, m := range cur {
		if m.prefix.HasPrefix(prefix) || prefix.HasPrefix(m.prefix) {
			return fmt.Errorf("mib: mount %s overlaps existing mount %s", prefix, m.prefix)
		}
	}
	next := make([]mount, 0, len(cur)+1)
	next = append(next, cur...)
	next = append(next, mount{prefix: prefix.Clone(), h: h})
	sort.Slice(next, func(i, j int) bool {
		return next[i].prefix.Compare(next[j].prefix) < 0
	})
	t.mounts.Store(&next)
	return nil
}

// find returns the index of the mount whose prefix covers o, or -1.
// Because mounts are disjoint and sorted, the only candidate is the
// last mount whose prefix sorts at or before o.
func find(mounts []mount, o oid.OID) int {
	i := sort.Search(len(mounts), func(i int) bool {
		return mounts[i].prefix.Compare(o) > 0
	})
	if i > 0 && o.HasPrefix(mounts[i-1].prefix) {
		return i - 1
	}
	return -1
}

// Get returns the value of the instance at o.
func (t *Tree) Get(o oid.OID) (Value, error) {
	t.stats.gets.Add(1)
	mounts := t.load()
	if i := find(mounts, o); i >= 0 {
		if v, ok := mounts[i].h.GetRel(o[len(mounts[i].prefix):]); ok {
			return v, nil
		}
	}
	return Value{}, ErrNoSuchName
}

// GetNext returns the first instance strictly after o, and its value.
// It returns ErrEndOfMIB after the last instance.
func (t *Tree) GetNext(o oid.OID) (oid.OID, Value, error) {
	next, v, err := t.GetNextInto(nil, o)
	return next, v, err
}

// GetNextInto is GetNext with a caller-supplied result buffer: the
// successor OID is appended to dst[:0] and returned. When dst has
// sufficient capacity and the resolved handler implements AppendNexter,
// the operation performs no allocation. dst may be nil.
func (t *Tree) GetNextInto(dst oid.OID, o oid.OID) (oid.OID, Value, error) {
	t.stats.getNexts.Add(1)
	mounts := t.load()
	// The mount containing o, if any, is tried with the relative
	// remainder; every mount sorting after o is tried from its start.
	// Mounts sorting entirely before o cannot hold a successor.
	i := sort.Search(len(mounts), func(i int) bool {
		return mounts[i].prefix.Compare(o) > 0
	})
	if i > 0 && o.HasPrefix(mounts[i-1].prefix) {
		m := &mounts[i-1]
		if next, v, ok := appendNext(m, dst, o[len(m.prefix):]); ok {
			return next, v, nil
		}
	}
	for ; i < len(mounts); i++ {
		if next, v, ok := appendNext(&mounts[i], dst, nil); ok {
			return next, v, nil
		}
	}
	return nil, Value{}, ErrEndOfMIB
}

// appendNext resolves one mount's successor of rel into dst[:0],
// prefixed with the mount prefix.
func appendNext(m *mount, dst oid.OID, rel oid.OID) (oid.OID, Value, bool) {
	dst = append(dst[:0], m.prefix...)
	if an, ok := m.h.(AppendNexter); ok {
		return an.AppendNextRel(dst, rel)
	}
	next, v, ok := m.h.NextRel(rel)
	if !ok {
		return nil, Value{}, false
	}
	return append(dst, next...), v, true
}

// Set writes the instance at o.
func (t *Tree) Set(o oid.OID, v Value) error {
	t.stats.sets.Add(1)
	mounts := t.load()
	i := find(mounts, o)
	if i < 0 {
		return ErrNoSuchName
	}
	s, ok := mounts[i].h.(Setter)
	if !ok {
		return ErrReadOnly
	}
	rel := o[len(mounts[i].prefix):]
	err := s.SetRel(rel, v)
	if err == nil && t.changes.Active() {
		c := Change{Kind: ChangeCell, Table: mounts[i].prefix}
		if len(rel) >= 2 {
			c.Col, c.Index = rel[0], rel[1:]
		} else {
			c.Index = rel
		}
		t.changes.Publish(c)
	}
	return err
}

// Walk invokes fn for every instance under prefix, in lexicographic
// order, until fn returns false or the subtree is exhausted. It returns
// the number of instances visited.
//
// The OID passed to fn is only valid for the duration of the call;
// clone it to retain it.
func (t *Tree) Walk(prefix oid.OID, fn func(o oid.OID, v Value) bool) int {
	return t.WalkFrom(prefix, prefix, fn)
}

// WalkFrom invokes fn for every instance under prefix that is strictly
// greater than `after`, in lexicographic order, until fn returns false
// or the subtree is exhausted, returning the number of instances
// visited. Walk(prefix, fn) is WalkFrom(prefix, prefix, fn).
//
// Unlike a GetNext loop, WalkFrom resolves the mount table once and
// pins each mount across its whole subtree: handlers implementing
// BulkHandler enumerate their instances in a single call, and full
// OIDs are assembled in one reused buffer. The OID passed to fn is
// only valid for the duration of the call; clone it to retain it.
func (t *Tree) WalkFrom(prefix, after oid.OID, fn func(o oid.OID, v Value) bool) int {
	t.stats.walks.Add(1)
	n := t.walkFrom(prefix, after, fn)
	t.stats.walkVisited.Add(uint64(n))
	return n
}

// walkFrom is WalkFrom without the stats accounting.
func (t *Tree) walkFrom(prefix, after oid.OID, fn func(o oid.OID, v Value) bool) int {
	mounts := t.load()
	var buf oid.OID // reused full-OID scratch across the whole walk
	n := 0
	// First mount to consider: the one containing `after`, else the
	// first mount sorting beyond it.
	i := sort.Search(len(mounts), func(i int) bool {
		return mounts[i].prefix.Compare(after) > 0
	})
	if i > 0 && after.HasPrefix(mounts[i-1].prefix) {
		i--
	}
	for ; i < len(mounts); i++ {
		m := &mounts[i]
		// A mount whose prefix leaves the requested subtree ends the
		// walk; mounts are sorted, so nothing later can re-enter it.
		// (A mount above the prefix — prefix inside the mount — still
		// participates: its instances are filtered individually.)
		if !m.prefix.HasPrefix(prefix) && !prefix.HasPrefix(m.prefix) {
			if m.prefix.Compare(prefix) > 0 {
				break
			}
			continue
		}
		var rel oid.OID
		if after.HasPrefix(m.prefix) {
			rel = after[len(m.prefix):]
		}
		stop := false
		visit := func(r oid.OID, v Value) bool {
			buf = append(append(buf[:0], m.prefix...), r...)
			if !buf.HasPrefix(prefix) {
				// Past the requested subtree within a covering mount.
				if buf.Compare(prefix) > 0 {
					stop = true
					return false
				}
				return true // still before the subtree; keep scanning
			}
			n++
			if !fn(buf, v) {
				stop = true
				return false
			}
			return true
		}
		if bh, ok := m.h.(BulkHandler); ok {
			bh.NextRelN(rel, 0, visit)
		} else {
			walkRelSlow(m.h, rel, visit)
		}
		if stop {
			return n
		}
	}
	return n
}

// walkRelSlow enumerates a plain Handler with a NextRel loop, feeding
// the same visit callback the bulk path uses. The relative cursor is
// kept in a reused buffer.
func walkRelSlow(h Handler, rel oid.OID, visit func(rel oid.OID, v Value) bool) {
	cur := append(oid.OID(nil), rel...)
	for {
		next, v, ok := h.NextRel(cur)
		if !ok {
			return
		}
		if !visit(next, v) {
			return
		}
		cur = append(cur[:0], next...)
	}
}

// scalarInstance is the single ".0" instance every Scalar exposes,
// hoisted so the GetNext hot path does not allocate it per call.
var scalarInstance = oid.OID{0}

// Scalar is a Handler for a single leaf object with exactly one
// instance, ".0", per SMI convention. Mount it at the object OID (for
// example sysDescr, 1.3.6.1.2.1.1.1).
type Scalar struct {
	// Get returns the current value. Required.
	Get func() Value
	// Set accepts a write; nil means read-only.
	Set func(Value) error
}

// GetRel implements Handler.
func (s *Scalar) GetRel(rel oid.OID) (Value, bool) {
	if len(rel) != 1 || rel[0] != 0 {
		return Value{}, false
	}
	return s.Get(), true
}

// NextRel implements Handler.
func (s *Scalar) NextRel(rel oid.OID) (oid.OID, Value, bool) {
	if rel.Compare(scalarInstance) < 0 {
		return scalarInstance, s.Get(), true
	}
	return nil, Value{}, false
}

// AppendNextRel implements AppendNexter.
func (s *Scalar) AppendNextRel(dst oid.OID, rel oid.OID) (oid.OID, Value, bool) {
	if rel.Compare(scalarInstance) < 0 {
		return append(dst, 0), s.Get(), true
	}
	return nil, Value{}, false
}

// NextRelN implements BulkHandler.
func (s *Scalar) NextRelN(rel oid.OID, max int, visit func(rel oid.OID, v Value) bool) int {
	if rel.Compare(scalarInstance) >= 0 {
		return 0
	}
	visit(scalarInstance, s.Get())
	return 1
}

// SetRel implements Setter.
func (s *Scalar) SetRel(rel oid.OID, v Value) error {
	if len(rel) != 1 || rel[0] != 0 {
		return ErrNoSuchName
	}
	if s.Set == nil {
		return ErrReadOnly
	}
	return s.Set(v)
}

// ConstScalar returns a Scalar that always serves v.
func ConstScalar(v Value) *Scalar {
	return &Scalar{Get: func() Value { return v }}
}
