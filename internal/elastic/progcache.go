package elastic

import (
	"container/list"
	"sync"

	"mbd/internal/dpl"
	"mbd/internal/dpl/analysis"
	"mbd/internal/obs"
)

// Content-addressed compiled-program cache. It holds two kinds of
// entry in two key spaces that never meet:
//
//   - a source delegation is keyed by sha256(source) plus the compiler
//     generation, so re-delegating the same program — the common case
//     under federation fan-out, supervised reloads and warm restarts —
//     skips parsing, compilation, optimization and analysis entirely
//     and goes straight to the per-principal admission decision.
//     Bumping dpl.CompilerVersion invalidates every locally compiled
//     artifact at once, because the version is part of the key. Only
//     local translation writes these entries;
//   - a received artifact is keyed by sha256 of its own encoding plus
//     the generation it was stamped with, and marked received, so a
//     repeat delivery of the same bytes skips re-verification. The
//     SourceHash an artifact claims is never a key: nothing proves it,
//     and a source lookup that found an artifact cached under a forged
//     claim would run the sender's code in place of the delegator's.

// defaultProgCacheSize is used when Config.ProgramCacheSize is zero.
const defaultProgCacheSize = 256

// progKey identifies one compiled artifact: what was compiled (the
// source, or for a received artifact its encoding), and by which
// compiler generation.
type progKey struct {
	hash     [32]byte
	version  int
	received bool
}

// progEntry is everything admission needs from a translation: the
// (optimized) object code, the analysis report, and the shippable
// artifact for cascaded delegation.
type progEntry struct {
	obj  *dpl.Compiled
	rep  *analysis.Report
	prog *dpl.CompiledProgram
}

// progCache is a mutex-guarded LRU over progKey.
type progCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent; values are *progItem
	items map[progKey]*list.Element

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	entries   *obs.Gauge
}

type progItem struct {
	key progKey
	ent progEntry
}

// newProgCache returns a cache of the given capacity, or nil when the
// capacity is negative (caching disabled).
func newProgCache(capacity int, reg *obs.Registry) *progCache {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = defaultProgCacheSize
	}
	return &progCache{
		cap:       capacity,
		ll:        list.New(),
		items:     make(map[progKey]*list.Element),
		hits:      reg.Counter("elastic_progcache_hits_total", "admissions served from the compiled-program cache"),
		misses:    reg.Counter("elastic_progcache_misses_total", "admissions that required a full translation"),
		evictions: reg.Counter("elastic_progcache_evictions_total", "compiled programs evicted from the cache"),
		entries:   reg.Gauge("elastic_progcache_entries", "compiled programs currently cached"),
	}
}

// get returns the cached entry for key, counting the hit or miss. A nil
// cache always misses silently.
func (c *progCache) get(key progKey) (progEntry, bool) {
	if c == nil {
		return progEntry{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return progEntry{}, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*progItem).ent, true
}

// put stores ent under key, evicting the least recently used entry
// beyond capacity.
func (c *progCache) put(key progKey, ent progEntry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*progItem).ent = ent
		return
	}
	c.items[key] = c.ll.PushFront(&progItem{key: key, ent: ent})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*progItem).key)
		c.evictions.Inc()
	}
	c.entries.Set(int64(c.ll.Len()))
}
