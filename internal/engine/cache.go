package engine

import (
	"context"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/delta"
	"repro/internal/mmlp"
	"repro/internal/obs"
)

// This file is the cache-aware solve path. The algorithm is deterministic
// and the pipeline canonicalizes term/row order at entry, so every member
// of a canon.Key's equivalence class produces bit-identical solutions; a
// complete, post-back-mapping Solution is therefore safe to memoise under
// the canonical hash of its inputs and replay to any later caller.

// CacheOptions sizes a result cache.
type CacheOptions struct {
	// MaxBytes is the total byte budget (0 = cache.DefaultMaxBytes).
	MaxBytes int64
}

// Cache memoises complete solve results keyed by the canonical
// (instance, options) hash. Safe for concurrent use; a nil *Cache disables
// caching wherever one is accepted.
type Cache struct {
	c *cache.Cache
}

// NewCache builds a result cache.
func NewCache(o CacheOptions) *Cache {
	return &Cache{c: cache.New(cache.Options{MaxBytes: o.MaxBytes})}
}

// Stats snapshots the cache counters (zero-valued for a nil cache).
func (c *Cache) Stats() mmlp.CacheStatsRaw {
	if c == nil || c.c == nil {
		return mmlp.CacheStatsRaw{}
	}
	return c.c.Stats()
}

// Prune removes every cached result whose key fails keep and returns the
// number removed. The serving layer calls it after a ring cutover so each
// shard keeps only the partitions the new assignment gives it. A no-op on
// a nil cache.
func (c *Cache) Prune(keep func(canon.Key) bool) int {
	if c == nil || c.c == nil {
		return 0
	}
	return c.c.Prune(keep)
}

// cachedResult is what one key maps to: the solution, the traffic report
// of the run for the message-passing engines, and the delta record — the
// canonical instance, options and kernel t-vector SolveDelta prices edits
// against. All three are immutable once stored.
type cachedResult struct {
	sol  *Solution
	info *DistInfo
	rec  *delta.Record
}

// SolveKey canonically hashes one solve: the cache index of its result and
// — because it is invariant under row/term permutation — the routing key
// the shard layer uses to assign every spelling of one problem to one
// fleet member. Workers is excluded: it changes parallelism, never output
// bits.
func SolveKey(in *mmlp.Instance, o Options) canon.Key {
	return canon.Hash(in, canonOptions(o))
}

// bytes estimates an entry's memory cost: the X vector dominates; the
// fixed structs, the key and the map/list bookkeeping are covered by a
// flat overhead.
func (r *cachedResult) bytes() int64 {
	const overhead = 192
	n := int64(overhead) + 8*int64(len(r.sol.X))
	if r.info != nil {
		n += 48
	}
	n += r.rec.Bytes()
	return n
}

// clone returns a solution the caller owns: cached entries are shared
// across goroutines, and public callers are free to mutate X.
func (s *Solution) clone() *Solution {
	if s == nil {
		return nil
	}
	c := *s
	if s.X != nil {
		c.X = append(make([]float64, 0, len(s.X)), s.X...)
	}
	return &c
}

func (d *DistInfo) clone() *DistInfo {
	if d == nil {
		return nil
	}
	c := *d
	return &c
}

// Request is one solve for the cache-fronted driver, in one of three
// kinds: an instance with options (In, Opts); a canon wire payload
// (Canon), which carries its own options and is decoded only on a cache
// miss; or an edit of a cached base (Delta). Delta takes precedence over
// Canon, and Canon over In.
type Request struct {
	In    *mmlp.Instance
	Opts  Options
	Canon []byte
	Delta *DeltaRequest
}

// DeltaRequest names a cached base solve and the edits to price against it.
type DeltaRequest struct {
	Base  canon.Key
	Edits []mmlp.RowEdit
}

// Reply is the answer to a Request. Sol is the caller's private copy; Dist
// is the traffic report of a message-passing run; Delta is the accounting
// of a delta request (nil for the other kinds); Cached reports that the
// result came from the cache, or from a concurrent caller's solve of the
// same key, rather than from this call's own pipeline run.
type Reply struct {
	Sol    *Solution
	Dist   *DistInfo
	Delta  *DeltaOutcome
	Cached bool
}

// SolveCached is SolveScratch fronted by ca: a key hit returns the stored
// result without touching the pipeline, a miss solves and stores. Stored
// results are captured after back-mapping, so a hit is bit-identical to
// the cold solve it replaces (the conformance tests assert this). Failed
// solves are never stored. Concurrent misses of one key coalesce: a single
// caller runs the pipeline, the rest share its result. The returned
// solution is a private copy — callers may mutate it freely. cached
// reports whether the result came from the cache (or a concurrent leader)
// rather than from this call's own solve.
func SolveCached(ctx context.Context, in *mmlp.Instance, o Options, sc *Scratch, ca *Cache) (sol *Solution, info *DistInfo, cached bool, err error) {
	rep, _, err := solve(ctx, Request{In: in, Opts: o}, sc, ca, nil)
	return rep.Sol, rep.Dist, rep.Cached, err
}

// SolveOrSubscribe answers req through ca for callers that must not park
// behind another caller's in-flight solve of the same key. When no such
// flight exists it behaves like SolveCached (deliver is unused) and returns
// subscribed=false. When one does, the call registers deliver on the
// flight and returns immediately with subscribed=true and a zero Reply:
// deliver is later invoked exactly once, on the leading goroutine, with a
// private copy of the shared result on success or the leader's error on
// failure. There is no automatic retry after a leader failure — the
// subscriber decides (the batch pool re-queues the job, applying its own
// timeout afresh).
func SolveOrSubscribe(ctx context.Context, req Request, sc *Scratch, ca *Cache, deliver func(Reply, error)) (rep Reply, subscribed bool, err error) {
	return solve(ctx, req, sc, ca, deliver)
}

// solve is the one cache-fronted driver behind every entry point. The
// request's kind supplies its key prologue and its miss computation; the
// driver resets the trace, keys the request, then looks it up — blocking
// on a concurrent flight of the same key when deliver is nil, subscribing
// deliver to it otherwise — and clones what the cache shares. A nil cache
// runs the miss directly and returns its result uncloned. A delta on a
// message-passing engine only looks up: a splice cannot reproduce a dist
// run's traffic report, so its result is never stored, and hence never
// shared with a concurrent cold solve either.
func solve(ctx context.Context, req Request, sc *Scratch, ca *Cache, deliver func(Reply, error)) (Reply, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tr := sc.trace()
	tr.Reset()
	if ca != nil && ca.c == nil {
		ca = nil
	}
	k, err := req.prologue(sc, ca)
	if err != nil {
		return Reply{}, false, err
	}
	// The cache-lookup span covers the index probe plus any wait behind a
	// coalesced flight: on a miss it closes when the computation starts,
	// on a hit (or coalesced wait) when the lookup returns.
	tl := time.Now()
	if ca != nil && !k.store {
		if v, hit := ca.c.Get(k.key); hit {
			tr.Add(obs.StageCacheLookup, time.Since(tl))
			return v.(*cachedResult).reply(k.out, true), false, nil
		}
		ca = nil
	}
	if ca == nil {
		res, err := req.miss(ctx, k, sc, false)
		if err != nil {
			return Reply{}, false, err
		}
		return Reply{Sol: res.sol, Dist: res.info, Delta: k.out}, false, nil
	}

	compute := func() (any, int64, error) {
		tr.Add(obs.StageCacheLookup, time.Since(tl))
		res, err := req.miss(ctx, k, sc, true)
		if err != nil {
			return nil, 0, err
		}
		return &res, res.bytes(), nil
	}
	var v any
	hit, done := false, true
	if deliver == nil {
		v, hit, err = ca.c.Do(ctx, k.key, compute)
	} else {
		v, hit, done, err = ca.c.DoDetached(k.key, compute, func(val any, err error) {
			if err != nil {
				deliver(Reply{}, err)
				return
			}
			deliver(val.(*cachedResult).reply(k.out, true), nil)
		})
	}
	if !done {
		return Reply{}, true, nil
	}
	if err != nil {
		return Reply{}, false, err
	}
	if hit {
		tr.Add(obs.StageCacheLookup, time.Since(tl))
	}
	return v.(*cachedResult).reply(k.out, hit), false, nil
}

// reply renders a shared result as one caller's private Reply.
func (r *cachedResult) reply(out *DeltaOutcome, cached bool) Reply {
	return Reply{Sol: r.sol.clone(), Dist: r.info.clone(), Delta: out, Cached: cached}
}

// keyed is what a request's key prologue hands its miss computation.
type keyed struct {
	key canon.Key
	// in and opts are the canonical instance and options to solve; a canon
	// request leaves them to the miss, which decodes the payload.
	in   *mmlp.Instance
	opts Options
	// base and out are a delta's base record and its accounting.
	base *delta.Record
	out  *DeltaOutcome
	// owned marks an in that belongs to this request alone — a delta's
	// edited instance, fresh row headers over its base's immutable rows —
	// so a record may keep it without a copy.
	owned bool
	// store is false for a request that may only look the cache up.
	store bool
}

// prologue is the kind-specific front half of a request: it keys the
// request — only when there is a cache to key into, except for a delta,
// which cannot run without one — and records the trace stages that work
// costs.
func (r Request) prologue(sc *Scratch, ca *Cache) (k keyed, err error) {
	tr := sc.trace()
	var cs *mmlp.CanonScratch
	if sc != nil {
		cs = &sc.canon
	}
	k.store = true
	switch {
	case r.Delta != nil:
		return deltaPrologue(r.Delta, cs, ca, tr)
	case r.Canon != nil:
		if ca != nil {
			th := time.Now()
			k.key = canon.HashBytes(r.Canon)
			tr.Add(obs.StageHash, time.Since(th))
		}
	default:
		// The canonical instance is computed once per request: the key is
		// hashed over it (same key as hashing the original — canon.Hash is
		// permutation invariant) and a miss solves it directly. Term and
		// row order are canonicalized so the output is a pure function of
		// the instance's mathematical content: floating-point summation
		// makes the kernels order-sensitive, and the cache keys on exactly
		// these equivalence classes.
		tc := time.Now()
		k.in, k.opts = r.In.CanonicalInto(cs), r.Opts
		tr.Add(obs.StageCanonicalize, time.Since(tc))
		if ca != nil {
			th := time.Now()
			k.key = SolveKey(k.in, r.Opts)
			tr.Add(obs.StageHash, time.Since(th))
		}
	}
	return k, nil
}

// miss runs the pipeline for a request the cache could not answer. capture
// asks for the delta record a stored result carries.
func (r Request) miss(ctx context.Context, k keyed, sc *Scratch, capture bool) (cachedResult, error) {
	coreScratch := sc != nil
	if sc == nil {
		sc = NewScratch()
	}
	switch {
	case r.Delta != nil:
	case r.Canon != nil:
		// The wire decode is this path's twin of JSON canonicalization, so
		// it is timed under the canonicalize slot. The decoded instance is
		// already canonical (the decoder rejects anything else).
		td := time.Now()
		var err error
		if k.in, k.opts, err = decodeCanon(r.Canon, sc); err != nil {
			return cachedResult{}, err
		}
		if err := k.in.Validate(); err != nil {
			return cachedResult{}, err
		}
		sc.Trace.Add(obs.StageCanonicalize, time.Since(td))
	default:
		// Validate the original, not the canonical copy, so error messages
		// name the caller's row indices; invalid requests stay uncached.
		if err := r.In.Validate(); err != nil {
			return cachedResult{}, err
		}
	}
	var rec *delta.Record
	if capture {
		// The record outlives the request. Any instance but an owned one
		// may live in sc's arenas or belong to the caller, so the record
		// takes a deep copy of it.
		in := k.in
		if !k.owned {
			in = in.Clone()
		}
		rec = &delta.Record{In: in, Opts: canonOptions(k.opts)}
	}
	sol, info, err := solveCanonical(ctx, k.in, k.opts, sc, coreScratch, rec, k.base, k.out)
	return cachedResult{sol: sol, info: info, rec: rec}, err
}
