// Package cache is a sharded, byte-budgeted LRU with singleflight
// semantics, keyed by canon.Key. It fronts the solve pipeline in the batch
// and serving layers: repeat solves of a slowly-changing topology become a
// map lookup, and K concurrent solves of the same key run the computation
// once while the other K−1 callers wait for the shared result.
//
// The key space is split across DefaultShards shards selected by the key's
// leading bytes, so the batch pool's workers contend on that many mutexes
// instead of one. Each shard owns an equal slice of the byte budget and
// evicts its own least-recently-used entries when inserts push it over;
// hits, misses, evictions and coalesced waiters are counted globally with
// atomics.
package cache

import (
	"container/list"
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/canon"
	"repro/internal/mmlp"
)

// Default sizing: a 64 MiB budget holds tens of thousands of typical solve
// results, and 16 shards keep mutex contention negligible at the pool
// concurrencies the serving layer runs (≤ a few dozen workers).
const (
	DefaultMaxBytes = 64 << 20
	DefaultShards   = 16
)

// Options sizes a Cache.
type Options struct {
	// MaxBytes is the total byte budget across all shards
	// (0 = DefaultMaxBytes). Entries are charged their caller-declared
	// cost; an entry larger than a whole shard's budget is not stored.
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
	// subs are DoDetached subscribers; appended under the shard lock while
	// the flight is registered, collected by the leader when it settles.
	subs []func(val any, err error)
}

// shard is one lock domain: a map, an LRU list (front = most recent) and a
// slice of the byte budget.
type shard struct {
	mu       sync.Mutex
	entries  map[canon.Key]*list.Element // of *entry
	flights  map[canon.Key]*flight
	lru      list.List
	bytes    int64
	maxBytes int64
}

// Cache is safe for concurrent use.
type Cache struct {
	shards []shard
	mask   uint32

	hits, misses, coalesced, evictions, pruned atomic.Int64
	maxBytes                                   int64
}

// New builds a cache of DefaultShards shards; the zero-valued Options give
// the defaults.
func New(o Options) *Cache { return newSharded(o, DefaultShards) }

// newSharded is New with n shards, a power of two.
func newSharded(o Options, n int) *Cache {
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	c := &Cache{shards: make([]shard, n), mask: uint32(n - 1), maxBytes: o.MaxBytes}
	per := o.MaxBytes / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[canon.Key]*list.Element)
		c.shards[i].flights = make(map[canon.Key]*flight)
		c.shards[i].maxBytes = per
	}
	return c
}

// shardOf selects the lock domain from the key's leading bytes; SHA-256
// keys are uniform, so shards fill evenly.
func (c *Cache) shardOf(key canon.Key) *shard {
	return &c.shards[binary.BigEndian.Uint32(key[:4])&c.mask]
}

// get returns the stored value and refreshes its recency. Caller holds
// sh.mu.
func (sh *shard) get(key canon.Key) (any, bool) {
	el, ok := sh.entries[key]
	if !ok {
		return nil, false
	}
	sh.lru.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// put inserts or replaces an entry and evicts from the cold end until the
// shard is back under budget. Values larger than the whole shard are not
// stored — they would evict everything and then still not fit. Caller
// holds sh.mu; returns the number of evictions.
func (sh *shard) put(key canon.Key, val any, bytes int64) int64 {
	if bytes > sh.maxBytes {
		return 0
	}
	if el, ok := sh.entries[key]; ok {
		e := el.Value.(*entry)
		sh.bytes += bytes - e.bytes
		e.val, e.bytes = val, bytes
		sh.lru.MoveToFront(el)
	} else {
		sh.entries[key] = sh.lru.PushFront(&entry{key: key, val: val, bytes: bytes})
		sh.bytes += bytes
	}
	return sh.evict()
}

// evict removes entries from the cold end until the shard is back under
// budget and returns how many it removed. Caller holds sh.mu.
func (sh *shard) evict() int64 {
	var evicted int64
	for sh.bytes > sh.maxBytes {
		el := sh.lru.Back()
		e := el.Value.(*entry)
		sh.lru.Remove(el)
		delete(sh.entries, e.key)
		sh.bytes -= e.bytes
		evicted++
	}
	return evicted
}

// Charge adds bytes to the declared cost of key's entry while it still
// holds val (compared with ==) — memory the value built after it was
// stored, such as a memo — and evicts from the cold end until the shard
// is back under budget, the entry itself included. An entry evicted or
// replaced since is left alone and never brought back: its value is no
// longer the cache's, and that memory goes with its last user.
func (c *Cache) Charge(key canon.Key, val any, bytes int64) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	var evicted int64
	if el, ok := sh.entries[key]; ok && el.Value.(*entry).val == val {
		el.Value.(*entry).bytes += bytes
		sh.bytes += bytes
		evicted = sh.evict()
	}
	sh.mu.Unlock()
	c.evictions.Add(evicted)
}

// Get reports the cached value for key, counting a hit or a miss.
func (c *Cache) Get(key canon.Key) (any, bool) {
	val, ok := c.Load(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return val, ok
}

// Load is Get without the accounting: it returns the stored value for key
// and refreshes its recency, but counts neither a hit nor a miss. It is
// for reads that are not lookups of the caller's own request — a delta
// fetching the base record it prices against.
func (c *Cache) Load(key canon.Key) (any, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.get(key)
}

// Put stores val under key at the declared byte cost.
func (c *Cache) Put(key canon.Key, val any, bytes int64) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	evicted := sh.put(key, val, bytes)
	sh.mu.Unlock()
	c.evictions.Add(evicted)
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
	sh := c.shardOf(key)
	sh.mu.Lock()
	if val, ok := sh.get(key); ok {
		sh.mu.Unlock()
		c.hits.Add(1)
		return val, true, nil, nil
	}
	if f, ok := sh.flights[key]; ok {
		if deliver != nil {
			f.subs = append(f.subs, deliver)
		}
		sh.mu.Unlock()
		if count {
			c.coalesced.Add(1)
		}
		return nil, false, f, nil
	}
	f = &flight{done: make(chan struct{})}
	sh.flights[key] = f
	sh.mu.Unlock()
	c.misses.Add(1)

	var bytes int64
	f.val, bytes, f.err = compute()
	c.settle(sh, key, f, bytes)
	return f.val, false, nil, f.err
}

// settle finalizes a flight the caller led: the entry is stored (on
// success) and the flight unregistered in one critical section, so no new
// waiter or subscriber can attach afterwards; then the waiters are released
// and the subscribers delivered, on the leader's goroutine. Delivery order
// is subscription order.
func (c *Cache) settle(sh *shard, key canon.Key, f *flight, bytes int64) {
	sh.mu.Lock()
	delete(sh.flights, key)
	var evicted int64
	if f.err == nil {
		evicted = sh.put(key, f.val, bytes)
	}
	subs := f.subs
	f.subs = nil
	sh.mu.Unlock()
	c.evictions.Add(evicted)
	close(f.done)
	for _, deliver := range subs {
		deliver(f.val, f.err)
	}
}

// Prune removes every stored entry whose key fails keep and returns the
// number removed. The serving layer calls it after a ring cutover so a
// shard drops the partitions it no longer owns — keeping the fleet-wide
// "every key cached exactly once" invariant — without disturbing entries it
// still owns. In-flight computations are not affected; their results are
// stored as usual and, if now unwanted, removed by the next Prune.
func (c *Cache) Prune(keep func(canon.Key) bool) int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; {
			next := el.Next()
			e := el.Value.(*entry)
			if !keep(e.key) {
				sh.lru.Remove(el)
				delete(sh.entries, e.key)
				sh.bytes -= e.bytes
				total++
			}
			el = next
		}
		sh.mu.Unlock()
	}
	c.pruned.Add(int64(total))
	return total
}

// Stats snapshots the counters and contents (mmlp.CacheStatsRaw documents
// what each counts). The counters are read with atomics and the per-shard
// contents under each shard's lock, so the snapshot is cheap but only
// loosely consistent under concurrent traffic.
func (c *Cache) Stats() mmlp.CacheStatsRaw {
	st := mmlp.CacheStatsRaw{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Pruned:    c.pruned.Load(),
		MaxBytes:  c.maxBytes,
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Entries += int64(len(sh.entries))
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}
