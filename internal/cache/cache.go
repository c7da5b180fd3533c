// Package cache is a byte-budgeted LRU with singleflight semantics, keyed
// by canon.Key. It fronts the solve pipeline in the batch and serving
// layers: repeat solves of a slowly-changing topology become a map lookup,
// and K concurrent solves of the same key run the computation once while
// the other K−1 callers wait for the shared result.
//
// One mutex guards one entry map, one LRU list and one byte budget, so an
// entry may be as large as the whole budget and eviction always takes the
// least recently used entry of the cache. The same lock guards the
// counters of hits, misses, evictions, coalesced waiters and pruned
// entries.
package cache

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/canon"
	"repro/internal/mmlp"
)

// DefaultMaxBytes is the default budget: it holds tens of thousands of
// typical solve results.
const DefaultMaxBytes = 64 << 20

// Options sizes a Cache.
type Options struct {
	// MaxBytes is the byte budget (0 = DefaultMaxBytes). Entries are
	// charged their caller-declared cost; an entry larger than the whole
	// budget is not stored.
	MaxBytes int64
}

// entry is one cached value with its LRU bookkeeping.
type entry struct {
	key   canon.Key
	val   any
	bytes int64
}

// flight is one in-progress computation other callers can wait on (Do) or
// subscribe to (DoDetached).
type flight struct {
	done chan struct{} // closed when val/err are final
	val  any
	err  error
	// subs are DoDetached subscribers; appended under the cache lock while
	// the flight is registered, collected by the leader when it settles.
	subs []func(val any, err error)
}

// Cache is safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	entries  map[canon.Key]*list.Element // of *entry
	flights  map[canon.Key]*flight
	lru      list.List // front = most recently used
	bytes    int64
	maxBytes int64

	hits, misses, coalesced, evictions, pruned int64
}

// New builds a cache; the zero-valued Options give the defaults.
func New(o Options) *Cache {
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	return &Cache{
		entries:  make(map[canon.Key]*list.Element),
		flights:  make(map[canon.Key]*flight),
		maxBytes: o.MaxBytes,
	}
}

// get returns the stored value and refreshes its recency. Caller holds
// c.mu.
func (c *Cache) get(key canon.Key) (any, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// put inserts an entry for an absent key and evicts from the cold end
// until the cache is back under budget. Values larger than the whole
// budget are not stored — they would evict everything and then still not
// fit. Caller holds c.mu.
func (c *Cache) put(key canon.Key, val any, bytes int64) {
	if bytes > c.maxBytes {
		return
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, val: val, bytes: bytes})
	c.bytes += bytes
	c.evict()
}

// evict removes entries from the cold end until the cache is back under
// budget, counting each. Caller holds c.mu.
func (c *Cache) evict() {
	for c.bytes > c.maxBytes {
		c.remove(c.lru.Back())
		c.evictions++
	}
}

// remove drops one stored entry. Caller holds c.mu.
func (c *Cache) remove(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
}

// Charge adds bytes to the declared cost of key's entry while it still
// holds val (compared with ==) — memory the value built after it was
// stored, such as a memo — and evicts from the cold end until the cache
// is back under budget, the entry itself included. An entry evicted since,
// or stored again with another value, is left alone and never brought
// back: its value is no longer the cache's, and that memory goes with its
// last user.
func (c *Cache) Charge(key canon.Key, val any, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok && el.Value.(*entry).val == val {
		el.Value.(*entry).bytes += bytes
		c.bytes += bytes
		c.evict()
	}
}

// Get reports the cached value for key, counting a hit or a miss.
func (c *Cache) Get(key canon.Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	val, ok := c.get(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return val, ok
}

// Load is Get without the accounting: it returns the stored value for key
// and refreshes its recency, but counts neither a hit nor a miss. It is
// for reads that are not lookups of the caller's own request — a delta
// fetching the base record it prices against.
func (c *Cache) Load(key canon.Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.get(key)
}

// Do returns the value for key, computing it with compute on a miss.
// compute returns the value and its byte cost; errors are returned to the
// caller and never cached. Concurrent Do calls for the same key coalesce:
// one caller (the leader) runs compute, the rest wait and share its value.
// hit reports whether the value came from the cache or a leader (false
// only for the caller that ran compute itself). A waiter whose ctx expires
// stops waiting and returns ctx's error; a waiter whose leader fails
// retries from the top — its own context may still be live even when the
// leader's was the reason for the failure.
//
// Do is DoDetached plus a wait: where DoDetached would subscribe to
// another caller's flight, Do blocks until that flight settles.
func (c *Cache) Do(ctx context.Context, key canon.Key, compute func() (any, int64, error)) (val any, hit bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for attached := false; ; attached = true {
		val, hit, f, err := c.do(key, compute, nil, !attached)
		if f == nil {
			return val, hit, err
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if f.err == nil {
			return f.val, true, nil
		}
	}
}

// DoDetached is Do for callers that must not block on someone else's
// computation. A cache hit, or a miss that makes the caller the leader,
// behaves exactly like Do and returns done=true. But when another caller's
// flight for key is already in progress, DoDetached registers deliver on it
// and returns immediately with done=false: deliver will be invoked exactly
// once, on the leader's goroutine after the flight settles, with the shared
// value or the leader's error. There is no automatic retry on leader
// failure — the subscriber sees the error and decides (the batch pool
// re-queues the job). A subscription cannot be cancelled; deliver must be
// safe to call even if the subscriber has since lost interest.
// hit reports (as in Do) whether the value came from a stored entry rather
// than this call's own compute.
func (c *Cache) DoDetached(key canon.Key, compute func() (any, int64, error), deliver func(val any, err error)) (val any, hit, done bool, err error) {
	val, hit, f, err := c.do(key, compute, deliver, true)
	return val, hit, f == nil, err
}

// do is the one lookup step behind Do and DoDetached: a stored value is a
// hit; absent one and any flight, the caller leads — it runs compute and
// settles the flight. When another caller's flight for key is in progress,
// do returns it (f != nil) after subscribing deliver to it; a nil deliver
// leaves the waiting to the caller. count credits the attachment to
// Coalesced, so a Do that retries after a leader failure counts once.
func (c *Cache) do(key canon.Key, compute func() (any, int64, error), deliver func(val any, err error), count bool) (val any, hit bool, f *flight, err error) {
	c.mu.Lock()
	if val, ok := c.get(key); ok {
		c.hits++
		c.mu.Unlock()
		return val, true, nil, nil
	}
	if f, ok := c.flights[key]; ok {
		if deliver != nil {
			f.subs = append(f.subs, deliver)
		}
		if count {
			c.coalesced++
		}
		c.mu.Unlock()
		return nil, false, f, nil
	}
	f = &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.misses++
	c.mu.Unlock()

	var bytes int64
	f.val, bytes, f.err = compute()
	c.settle(key, f, bytes)
	return f.val, false, nil, f.err
}

// settle finalizes a flight the caller led: the entry is stored (on
// success) and the flight unregistered in one critical section, so no new
// waiter or subscriber can attach afterwards; then the waiters are released
// and the subscribers delivered, on the leader's goroutine. Delivery order
// is subscription order. A flight is registered only while its key holds
// no entry, and only a flight stores one, so the key is still absent here.
func (c *Cache) settle(key canon.Key, f *flight, bytes int64) {
	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.put(key, f.val, bytes)
	}
	subs := f.subs
	f.subs = nil
	c.mu.Unlock()
	close(f.done)
	for _, deliver := range subs {
		deliver(f.val, f.err)
	}
}

// Prune removes every stored entry whose key fails keep and returns the
// number removed. The serving layer calls it after a ring cutover so a
// shard drops the partitions it no longer owns — keeping the fleet-wide
// "every key cached exactly once" invariant — without disturbing entries it
// still owns. keep runs without the lock held, on a snapshot of the stored
// keys; a key evicted meanwhile is not counted. In-flight computations are
// not affected; their results are stored as usual and, if now unwanted,
// removed by the next Prune.
func (c *Cache) Prune(keep func(canon.Key) bool) int {
	c.mu.Lock()
	keys := make([]canon.Key, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	c.mu.Unlock()

	drop := keys[:0]
	for _, k := range keys {
		if !keep(k) {
			drop = append(drop, k)
		}
	}

	total := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range drop {
		if el, ok := c.entries[k]; ok {
			c.remove(el)
			total++
		}
	}
	c.pruned += int64(total)
	return total
}

// Stats snapshots the counters and contents (mmlp.CacheStatsRaw documents
// what each counts) in one critical section.
func (c *Cache) Stats() mmlp.CacheStatsRaw {
	c.mu.Lock()
	defer c.mu.Unlock()
	return mmlp.CacheStatsRaw{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
		Pruned:    c.pruned,
		Entries:   int64(len(c.entries)),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
	}
}
