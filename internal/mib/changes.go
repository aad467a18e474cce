package mib

import (
	"sync"
	"sync/atomic"

	"mbd/internal/oid"
)

// ChangeKind classifies one MIB mutation.
type ChangeKind uint8

const (
	// ChangeCell reports a single cell write (Col and Index are set).
	ChangeCell ChangeKind = iota + 1
	// ChangeRow reports a row inserted or replaced wholesale (Index set).
	ChangeRow
	// ChangeDrop reports a row deleted (Index set).
	ChangeDrop
	// ChangeReset reports that the whole subtree under Table may have
	// changed (bulk mutation, membership reshuffle); consumers should
	// re-read and diff the table.
	ChangeReset
)

// String implements fmt.Stringer.
func (k ChangeKind) String() string {
	switch k {
	case ChangeCell:
		return "cell"
	case ChangeRow:
		return "row"
	case ChangeDrop:
		return "drop"
	case ChangeReset:
		return "reset"
	default:
		return "unknown"
	}
}

// Change is one captured MIB mutation, addressed by the table (or
// subtree) prefix it happened under and the affected row index.
type Change struct {
	Kind  ChangeKind
	Table oid.OID // table entry / subtree prefix
	Col   uint32  // ChangeCell only; 0 otherwise
	Index oid.OID // row index; nil for ChangeReset
}

// ChangeHub fans MIB mutations out to subscribers. Each subscriber owns
// a bounded drop-oldest queue, so a slow consumer loses old deltas (and
// can detect it via Lost) instead of blocking writers.
//
// The no-subscriber fast path is a single atomic load and branch with
// zero allocations, so instrumented mutation paths stay within the
// bench gate's budget when nothing is watching.
type ChangeHub struct {
	mu   sync.Mutex // serializes Subscribe/unsubscribe
	subs atomic.Pointer[[]*ChangeSub]
}

// Active reports whether any subscriber is attached. Publishers may use
// it to skip building a Change at all.
func (h *ChangeHub) Active() bool {
	p := h.subs.Load()
	return p != nil && len(*p) > 0
}

// Publish delivers c to every subscriber. When no subscriber is
// attached it is a single atomic load — no allocation, no locks. The
// Index (and Table) slices are cloned before being enqueued, so callers
// may pass reused buffers.
func (h *ChangeHub) Publish(c Change) {
	p := h.subs.Load()
	if p == nil || len(*p) == 0 {
		return
	}
	c.Table = c.Table.Clone()
	c.Index = c.Index.Clone()
	for _, s := range *p {
		s.offer(c)
	}
}

// Subscribe attaches a new subscriber with the given queue depth
// (minimum 1; depth <= 0 selects a default of 1024).
func (h *ChangeHub) Subscribe(depth int) *ChangeSub {
	if depth <= 0 {
		depth = 1024
	}
	s := &ChangeSub{hub: h, ch: make(chan Change, depth), ready: make(chan struct{}, 1)}
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.subs.Load()
	var next []*ChangeSub
	if cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, s)
	h.subs.Store(&next)
	return s
}

// ChangeSub is one subscriber's bounded change queue.
type ChangeSub struct {
	hub    *ChangeHub
	ch     chan Change
	ready  chan struct{} // holds a wake-up after each enqueue
	lost   atomic.Uint64
	closed atomic.Bool
}

// offer enqueues c, dropping the oldest queued change (and counting it)
// when the queue is full.
func (s *ChangeSub) offer(c Change) {
	if s.closed.Load() {
		return
	}
	for {
		select {
		case s.ch <- c:
			select {
			case s.ready <- struct{}{}:
			default:
			}
			return
		default:
		}
		select {
		case <-s.ch:
			s.lost.Add(1)
		default:
		}
	}
}

// Ready returns a channel that receives after changes are queued. A
// consumer woken by it drains the queue with Next, so whoever takes a
// change off the queue can do so under its own lock.
func (s *ChangeSub) Ready() <-chan struct{} { return s.ready }

// Next pops one queued change without blocking.
func (s *ChangeSub) Next() (Change, bool) {
	select {
	case c := <-s.ch:
		return c, true
	default:
		return Change{}, false
	}
}

// Lost returns the total number of changes dropped because this
// subscriber's queue overflowed. A consumer observing Lost advance must
// assume it missed deltas and resynchronize from the tree.
func (s *ChangeSub) Lost() uint64 { return s.lost.Load() }

// Close detaches the subscriber from its hub. Pending queued changes
// remain readable; no further changes are delivered.
func (s *ChangeSub) Close() {
	if s.closed.Swap(true) {
		return
	}
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.subs.Load()
	if cur == nil {
		return
	}
	next := make([]*ChangeSub, 0, len(*cur))
	for _, x := range *cur {
		if x != s {
			next = append(next, x)
		}
	}
	h.subs.Store(&next)
}

// changeTarget is a MemRows' registered publication target.
type changeTarget struct {
	hub   *ChangeHub
	table oid.OID
}

// Watch registers the hub and table-entry prefix under which this
// source's mutations are published. Pass a nil hub to stop publishing.
// Safe to call concurrently with mutations.
func (m *MemRows) Watch(hub *ChangeHub, table oid.OID) {
	if hub == nil {
		m.watch.Store(nil)
		return
	}
	m.watch.Store(&changeTarget{hub: hub, table: table.Clone()})
}

// publish reports one row-level mutation if a watch target is set.
func (m *MemRows) publish(kind ChangeKind, col uint32, index oid.OID) {
	t := m.watch.Load()
	if t == nil || !t.hub.Active() {
		return
	}
	t.hub.Publish(Change{Kind: kind, Table: t.table, Col: col, Index: index})
}
