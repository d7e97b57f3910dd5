package hyqsat

import (
	"math/rand"
	"sync"
	"testing"

	"hyqsat/internal/cnf"
)

// litsKey builds a content key and its hash directly from literal values, for
// unit tests that bypass queueContentKey.
func litsKey(vals ...int) ([]cnf.Lit, uint64) {
	key := make([]cnf.Lit, len(vals))
	for i, v := range vals {
		key[i] = cnf.Lit(v)
	}
	return key, hashLits(key)
}

// sameShardKeys returns n distinct single-literal keys whose hashes all land
// in the same shard, so per-shard eviction order can be tested
// deterministically.
func sameShardKeys(c *SharedEmbedCache, n int) ([][]cnf.Lit, []uint64) {
	byShard := map[*cacheShard]int{}
	keys := make([][]cnf.Lit, 0, n)
	hashes := make([]uint64, 0, n)
	var want *cacheShard
	for v := 0; len(keys) < n; v++ {
		key, h := litsKey(v)
		s := c.shard(h)
		if want == nil {
			byShard[s]++
			if byShard[s] == n {
				// Found a shard with n candidates; rescan to collect them.
				want = s
				v = -1
				continue
			}
			continue
		}
		if s == want {
			keys = append(keys, key)
			hashes = append(hashes, h)
		}
	}
	return keys, hashes
}

// TestEmbedCacheUnit exercises lookup, store, content-compare on hash
// collision, and per-shard LRU eviction directly.
func TestEmbedCacheUnit(t *testing.T) {
	c := NewSharedEmbedCache(16) // 2 entries per shard
	k1, h1 := litsKey(1, 2, 3)
	if c.lookup(k1, h1) != nil {
		t.Fatal("hit on empty cache")
	}
	e1 := &embedCacheEntry{embedded: 1}
	c.store(k1, h1, e1)
	if got := c.lookup(k1, h1); got != e1 {
		t.Fatal("stored entry not found")
	}
	k2, h2 := litsKey(1, 2, 4)
	if c.lookup(k2, h2) != nil {
		t.Fatal("different queue must miss")
	}
	// A hash collision — same slot, different contents — must miss on the
	// content compare, and storing under the colliding hash replaces the
	// previous occupant rather than growing the shard.
	if c.lookup(k2, h1) != nil {
		t.Fatal("colliding key must miss on content compare")
	}
	e2 := &embedCacheEntry{embedded: 2}
	c.store(k2, h1, e2)
	if got := c.lookup(k2, h1); got != e2 {
		t.Fatal("collision store did not replace occupant")
	}
	if c.lookup(k1, h1) != nil {
		t.Fatal("replaced entry still reachable")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after collision overwrite, want 1", c.Len())
	}
	hits, misses, _ := c.HitsMissesEvictions()
	if hits != 2 || misses != 4 {
		t.Fatalf("hits/misses = %d/%d, want 2/4", hits, misses)
	}
}

// TestEmbedCacheLRUEviction pins the recency semantics that distinguish the
// LRU from the old FIFO: a lookup refreshes an entry, so at capacity the
// *least recently used* entry goes, not the oldest-stored one.
func TestEmbedCacheLRUEviction(t *testing.T) {
	c := NewSharedEmbedCache(16) // 2 entries per shard
	keys, hashes := sameShardKeys(c, 3)
	ents := []*embedCacheEntry{{embedded: 10}, {embedded: 11}, {embedded: 12}}
	c.store(keys[0], hashes[0], ents[0])
	c.store(keys[1], hashes[1], ents[1])
	// Refresh keys[0]; under FIFO it would now be the eviction victim.
	if c.lookup(keys[0], hashes[0]) != ents[0] {
		t.Fatal("refresh lookup missed")
	}
	c.store(keys[2], hashes[2], ents[2]) // shard full → evicts keys[1]
	if c.lookup(keys[1], hashes[1]) != nil {
		t.Fatal("LRU entry survived eviction")
	}
	if c.lookup(keys[0], hashes[0]) != ents[0] || c.lookup(keys[2], hashes[2]) != ents[2] {
		t.Fatal("recently used entries evicted")
	}
	if _, _, evictions := c.HitsMissesEvictions(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	// Re-storing an existing key must overwrite in place, never evict.
	c.store(keys[0], hashes[0], &embedCacheEntry{embedded: 20})
	if got := c.lookup(keys[0], hashes[0]); got == nil || got.embedded != 20 {
		t.Fatal("re-store did not replace entry")
	}
	if c.lookup(keys[2], hashes[2]) == nil {
		t.Fatal("re-store evicted another entry")
	}
	if _, _, evictions := c.HitsMissesEvictions(); evictions != 1 {
		t.Fatalf("evictions = %d after re-store, want still 1", evictions)
	}
}

// TestEmbedCacheKeyNotAliased checks stored keys compare by content, not by
// the caller's backing array: mutating the slice after store must not corrupt
// the cache's view.
func TestEmbedCacheKeyNotAliased(t *testing.T) {
	c := newEmbedCache()
	k, h := litsKey(1, 2, 3)
	e := &embedCacheEntry{embedded: 1}
	c.store(k, h, e)
	k[0] = 99 // caller mutates its slice; the cache owns this key now
	fresh, freshH := litsKey(1, 2, 3)
	if c.lookup(fresh, freshH) != e {
		t.Fatal("lookup by content failed after caller mutation")
	}
}

// TestSharedEmbedCacheConcurrent hammers one cache from several goroutines
// (run under -race). Entries are self-describing, so any cross-key mixup —
// a torn map, a mislinked LRU list — surfaces as a value mismatch.
func TestSharedEmbedCacheConcurrent(t *testing.T) {
	const workers, iters, keyspace = 8, 2000, 200
	c := NewSharedEmbedCache(64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				v := rng.Intn(keyspace)
				key, h := litsKey(v, v+1, v+2)
				if ent := c.lookup(key, h); ent == nil {
					c.store(key, h, &embedCacheEntry{embedded: v})
				} else if ent.embedded != v {
					t.Errorf("key %d returned entry for %d", v, ent.embedded)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	hits, misses, evictions := c.HitsMissesEvictions()
	if hits+misses != workers*iters {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, workers*iters)
	}
	if c.Len() > 64 {
		t.Fatalf("Len = %d, exceeds capacity 64", c.Len())
	}
	if evictions < 0 {
		t.Fatalf("evictions = %d", evictions)
	}
}

// TestSharedCacheSolverHasNoPrivateCache pins the single cache reference: a
// solver given Options.Cache uses that cache for lookups and Stats, creates
// no private one, and leaves embed_cache_* off its registry (the shared
// cache's counters belong where the cache was made); a solver without one
// gets a private cache whose counters surface on its registry.
func TestSharedCacheSolverHasNoPrivateCache(t *testing.T) {
	f := random3SAT(rand.New(rand.NewSource(3)), 20, 85)
	shared := NewSharedEmbedCache(64)
	o := simOpts(1)
	o.WarmupIterations = 8
	o.Cache = shared
	s := New(f, o)
	if s.cache != shared {
		t.Fatal("solver with Options.Cache holds a different cache")
	}
	if _, ok := s.Metrics().Snapshot().Counters["embed_cache_hits"]; ok {
		t.Fatal("shared-cache solver registered embed_cache_* counters")
	}
	s.Solve()
	if _, misses, _ := shared.HitsMissesEvictions(); misses == 0 {
		t.Fatal("solve did not use the shared cache")
	}

	o.Cache = nil
	p := New(f, o)
	if p.cache == nil || p.cache == shared {
		t.Fatal("solver without Options.Cache has no private cache")
	}
	if _, ok := p.Metrics().Snapshot().Counters["embed_cache_hits"]; !ok {
		t.Fatal("private cache counters missing from the solver registry")
	}
}
