// Package batch is the throughput layer of the library: it solves many
// independent max-min LP instances concurrently on a fixed pool of workers,
// each owning reusable solver scratch (engine.Scratch — the
// canonicalization copy, the §4 transform arena and the §5 kernel buffers)
// so a warm worker solves in steady state with a handful of heap
// allocations per job. There is one job runner, Pool: a worker pool with a
// bounded queue and backpressure, the shape cmd/mmlpserve serves HTTP
// traffic from. Solve, the slice-in/positional-results shape SolveBatch
// exposes on the public surface, runs its jobs on a transient Pool.
//
// Every job is solved by the full engine pipeline, so batch results are
// bit-identical to the corresponding sequential solves.
package batch

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/mmlp"
	"repro/internal/obs"
)

// Job is one request to solve: an instance with options (In, Opts), a
// canon wire payload (Canon, keyed by hashing the bytes and decoded only on
// a cache miss), or an incremental re-solve of a cached base (Delta).
// Engines may be mixed freely within a batch (Opts.Engine selects per
// job), and delta jobs share the pool's workers, queue, admission ledger
// and result cache with full solves.
type Job = engine.Request

// DeltaJob names a cached base solve and the edits to price against it.
type DeltaJob = engine.DeltaRequest

// Result is the outcome of one job.
type Result struct {
	// Index is the job's position in the submitted batch.
	Index int
	// Reply is the engine's answer: the solution (nil when Err is set), the
	// traffic report of a message-passing job, a delta job's accounting
	// (nil for full solves and failed deltas), and whether the result came
	// from the result cache (or a concurrent solve of the same key it
	// coalesced with) instead of a fresh pipeline run — always false when
	// caching is disabled.
	engine.Reply
	// Err reports a failed or cancelled job.
	Err error
	// Latency is the wall-clock solve time (zero when the job was cancelled
	// before it started).
	Latency time.Duration
	// Trace is the per-stage timing breakdown of this job (zero-valued on
	// failure). A fixed-size value, not a pointer: copying a Result copies
	// the record, and no per-job allocation is ever needed for it.
	Trace obs.Trace
}

// Options configures a pool or a one-shot batch.
type Options struct {
	// Workers is the fixed pool size (0 = GOMAXPROCS).
	Workers int
	// Queue bounds the pending-task queue of a Pool (0 = 2×Workers);
	// Submit blocks — backpressure — while the queue is full. Ignored by
	// Solve, whose transient pool queues the whole slice.
	Queue int
	// JobTimeout, when positive, is a per-job deadline. The solve pipeline
	// checks its context between stages (and inside the centralised
	// kernel's t_u loop), so an expired job stops promptly and reports
	// context.DeadlineExceeded.
	JobTimeout time.Duration
	// CacheBytes, when positive, fronts the workers with a result cache of
	// this byte budget, keyed by the canonical (instance, options) hash:
	// repeat solves become a lookup and concurrent solves of one key run
	// the pipeline once. Cached results are bit-identical to fresh ones.
	// Zero disables caching.
	CacheBytes int64
}

// newCache builds the configured result cache, nil when disabled.
func (o Options) newCache() *engine.Cache {
	if o.CacheBytes <= 0 {
		return nil
	}
	return engine.NewCache(engine.CacheOptions{MaxBytes: o.CacheBytes})
}

// normalizedWorkers resolves the pool size.
func (o Options) normalizedWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Solve runs every job on a transient Pool and returns positional results
// (result i belongs to jobs[i]) plus aggregate statistics. Jobs are handed
// to workers dynamically, so heterogeneous instance sizes stay
// load-balanced, and duplicates coalesce on the pool's result cache
// without parking a worker. Cancelling ctx stops unstarted jobs — their
// results carry the context error, which Solve also returns — while
// running jobs stop at their next pipeline-stage boundary and report the
// context error.
func Solve(ctx context.Context, jobs []Job, o Options) ([]Result, *mmlp.StatsRaw, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The queue holds the whole batch, so Submit never blocks and never
	// loses a job to a cancelled ctx: every job reaches a worker, which
	// reports a dead context as that job's error.
	o.Queue = max(len(jobs), 1)
	p := NewPool(o)
	results := make([]Result, len(jobs))
	var wg sync.WaitGroup
	done := func(r Result) {
		results[r.Index] = r
		wg.Done()
	}
	wg.Add(len(jobs))
	for i := range jobs {
		if err := p.Submit(ctx, i, jobs[i], done); err != nil {
			done(Result{Index: i, Err: err})
		}
	}
	wg.Wait()
	p.Close()
	return results, p.Stats(), ctx.Err()
}
