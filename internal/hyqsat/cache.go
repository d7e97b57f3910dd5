package hyqsat

import (
	"sync"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/obs"
	"hyqsat/internal/qubo"
)

// embedCacheEntry is one memoised output of the frontend pipeline
// (encode → embed → restrict → adjust → normalise → program) for a clause
// queue. Entries are immutable after construction — EmbeddedProblem is
// read-only after programming — so one entry may be sampled from many
// goroutines concurrently. embedded == 0 marks a queue the embedder could
// not use at all (skip QA for it).
type embedCacheEntry struct {
	embEnc   *qubo.Encoding
	ep       *anneal.EmbeddedProblem
	embedded int
}

// embedCacheCap is the default capacity of an embedding cache. The former
// FIFO held 64 entries — enough for one solver's warm-up working set, far too
// small once a cache is shared across portfolio workers and cube warm-ups;
// 512 covers the working sets observed there while bounding retained
// EmbeddedProblems to a few MB.
const embedCacheCap = 512

// embedCacheShards is the number of independently locked shards. Eight is
// plenty to decorrelate the handful of concurrent solvers a host runs while
// keeping per-shard LRU lists long enough to be useful.
const embedCacheShards = 8

// SharedEmbedCache memoises the frontend embedding pipeline per clause
// queue, keyed by the literal *content* of the queue (clauses flattened,
// NoLit-separated). Content addressing makes the cache sound across solvers:
// index keys are only meaningful within one formula, but the
// cube-and-conquer warm-up builds a fresh formula per cube where the same
// index names different clauses. The pipeline output depends only on the
// queue's clause contents plus fixed hardware/options, so any two solvers
// configured alike may share a cache.
//
// Internally the cache is sharded — embedCacheShards × (map + intrusive LRU
// list), one mutex per shard, shard selected by key hash — so concurrent
// portfolio workers do not serialise on one lock the way the old
// single-mutex FIFO did. Eviction is per-shard LRU: a lookup hit refreshes
// the entry, a store at capacity evicts the shard's least-recently-used
// entry. Hash collisions count as misses (a miss only costs a pipeline
// re-run, never correctness; the store overwrites the slot).
//
// Hit/miss/eviction counters are standalone atomics by default;
// AttachMetrics rebinds them to embed_cache_hits / embed_cache_misses /
// embed_cache_evictions in an obs registry so they surface on /metrics.
type SharedEmbedCache struct {
	shards [embedCacheShards]cacheShard

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[uint64]*lruEntry
	head    *lruEntry // most recently used
	tail    *lruEntry // least recently used
	cap     int
}

type lruEntry struct {
	hash       uint64
	key        []cnf.Lit // flattened queue contents, exact compare
	ent        *embedCacheEntry
	prev, next *lruEntry
}

// NewSharedEmbedCache returns an embedding cache bounded to roughly capacity
// entries (<= 0 selects the default, embedCacheCap). Capacity is split
// evenly across shards, at least one entry each.
func NewSharedEmbedCache(capacity int) *SharedEmbedCache {
	if capacity <= 0 {
		capacity = embedCacheCap
	}
	perShard := (capacity + embedCacheShards - 1) / embedCacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &SharedEmbedCache{
		hits:      &obs.Counter{},
		misses:    &obs.Counter{},
		evictions: &obs.Counter{},
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[uint64]*lruEntry)
		c.shards[i].cap = perShard
	}
	return c
}

// newEmbedCache returns a solver-private cache at the default capacity.
func newEmbedCache() *SharedEmbedCache { return NewSharedEmbedCache(0) }

// AttachMetrics rebinds the cache's counters to the registry's
// embed_cache_hits / embed_cache_misses / embed_cache_evictions, so cache
// behaviour shows up on /metrics and in -stats output. Call before the cache
// is shared with running solvers; counts accumulated so far stay on the old
// counters.
func (c *SharedEmbedCache) AttachMetrics(reg *obs.Registry) {
	c.hits = reg.Counter("embed_cache_hits")
	c.misses = reg.Counter("embed_cache_misses")
	c.evictions = reg.Counter("embed_cache_evictions")
}

// HitsMissesEvictions returns the cache's lifetime counter values.
func (c *SharedEmbedCache) HitsMissesEvictions() (hits, misses, evictions int64) {
	return c.hits.Value(), c.misses.Value(), c.evictions.Value()
}

func (c *SharedEmbedCache) shard(h uint64) *cacheShard {
	return &c.shards[h>>(64-3)%embedCacheShards]
}

// queueContentKey flattens the queue's clauses into a comparable literal
// sequence (clauses separated by NoLit), appended to dst, and its
// splitmix64-folded hash.
func queueContentKey(dst []cnf.Lit, f *cnf.Formula, queueIdx []int) ([]cnf.Lit, uint64) {
	key := dst
	for _, ci := range queueIdx {
		key = append(key, f.Clauses[ci]...)
		key = append(key, cnf.NoLit)
	}
	return key, hashLits(key)
}

func hashLits(key []cnf.Lit) uint64 {
	h := uint64(len(key)) + 0x9e3779b97f4a7c15
	for _, l := range key {
		h ^= uint64(int64(l)) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
	}
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ (h >> 31)
}

func sameKey(a, b []cnf.Lit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookup returns the cached entry for the content key, refreshing its LRU
// position, or nil on a miss.
func (c *SharedEmbedCache) lookup(key []cnf.Lit, h uint64) *embedCacheEntry {
	s := c.shard(h)
	s.mu.Lock()
	e, ok := s.entries[h]
	if !ok || !sameKey(e.key, key) {
		s.mu.Unlock()
		c.misses.Inc()
		return nil
	}
	s.moveToFront(e)
	ent := e.ent
	s.mu.Unlock()
	c.hits.Inc()
	return ent
}

// store records the pipeline output under the content key as the shard's
// most recently used entry, evicting LRU at capacity. The key is copied, so
// callers may keep mutating their slice.
func (c *SharedEmbedCache) store(key []cnf.Lit, h uint64, ent *embedCacheEntry) {
	key = append([]cnf.Lit(nil), key...)
	s := c.shard(h)
	s.mu.Lock()
	if e, ok := s.entries[h]; ok {
		// Overwrite in place: same queue re-stored, or a hash collision
		// replacing the previous occupant.
		e.key = key
		e.ent = ent
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	e := &lruEntry{hash: h, key: key, ent: ent}
	s.entries[h] = e
	s.pushFront(e)
	evicted := false
	if len(s.entries) > s.cap {
		lru := s.tail
		s.unlink(lru)
		delete(s.entries, lru.hash)
		evicted = true
	}
	s.mu.Unlock()
	if evicted {
		c.evictions.Inc()
	}
}

// Len returns the number of cached embeddings across all shards.
func (c *SharedEmbedCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Intrusive doubly-linked LRU list, head = most recently used. All three
// helpers require the shard lock.

func (s *cacheShard) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFront(e *lruEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
