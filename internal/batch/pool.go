package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/canon"
	"repro/internal/engine"
	"repro/internal/mmlp"
	"repro/internal/obs"
)

// ErrPoolClosed is returned by Submit and Do once Close has begun.
var ErrPoolClosed = errors.New("batch: pool is closed")

// ErrQueueFull is returned by TrySubmit when the queue has no space; the
// caller is expected to shed the request (HTTP 429) rather than wait.
var ErrQueueFull = errors.New("batch: queue full")

// ErrExpiredInQueue marks a job whose deadline passed while it waited in
// the queue (or behind a coalesced flight): the kernel never ran. The
// error also matches context.DeadlineExceeded via errors.Is; the serving
// layer maps it to 504. The job still counts toward Jobs/Errors, so
// offered == (jobs - expired) + shed + expired holds at every scrape.
var ErrExpiredInQueue = errors.New("batch: deadline expired while queued")

// task is one queued unit of pool work.
type task struct {
	ctx   context.Context
	job   Job
	index int
	done  func(Result)
	enq   time.Time // when Submit enqueued it, for the queue-wait span
}

// Pool is a long-lived sharded solver: a fixed set of worker goroutines,
// each owning reusable scratch, pulling from a bounded queue. Create one
// with NewPool, feed it with Submit (which applies backpressure when the
// queue is full) and stop it with Close.
type Pool struct {
	opts  Options
	tasks chan task
	wg    sync.WaitGroup
	col   collector
	cache *engine.Cache // nil when Options.CacheBytes is zero

	// retryWG tracks the re-queue goroutines spawned when a subscribed
	// task's leader fails; Close waits for them after the workers, so done
	// callbacks never fire after Close returns.
	retryWG sync.WaitGroup

	// mu guards closed and orders Submit's channel send before Close's
	// close(tasks): Submit holds the read side across the send, so Close
	// cannot close the channel under a blocked submitter.
	mu     sync.RWMutex
	closed bool
}

// NewPool starts the workers and returns the running pool.
func NewPool(o Options) *Pool {
	workers := o.normalizedWorkers()
	queue := o.Queue
	if queue <= 0 {
		queue = 2 * workers
	}
	p := &Pool{opts: o, tasks: make(chan task, queue), cache: o.newCache()}
	p.col.start(workers)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// worker drains the queue with its own scratch until Close.
func (p *Pool) worker() {
	defer p.wg.Done()
	sc := engine.NewScratch()
	for t := range p.tasks {
		p.runTask(t, sc)
	}
}

// runTask executes one queued task with a single engine call, whatever the
// job's kind. A task whose key is already being solved by another worker
// does not park behind it: the task subscribes to the in-flight solve's
// completion callback and the worker returns to the queue immediately, so
// a burst of duplicates on one slow cold key costs one worker, not W. The
// subscribed task is finished by deliver on the leader's goroutine.
func (p *Pool) runTask(t task, sc *engine.Scratch) {
	if err := t.ctx.Err(); err != nil {
		p.col.record(0, true, nil)
		t.done(Result{Index: t.index, Err: p.queueDeath(err)})
		return
	}
	ctx, cancel := p.jobContext(t.ctx)
	start := time.Now()
	var onFlight func(engine.Reply, error)
	if p.cache != nil {
		// The closure captures a copy declared here, so only a cached pool
		// pays the heap copy; capturing t itself would move it to the heap
		// on every task.
		sub := t
		onFlight = func(rep engine.Reply, err error) {
			cancel()
			p.deliver(sub, start, rep, err)
		}
	}
	rep, subscribed, err := engine.SolveOrSubscribe(ctx, t.job, sc, p.cache, onFlight)
	if subscribed {
		return
	}
	cancel()
	lat := time.Since(start)
	// Copy the trace out of the scratch before the worker reuses it, and
	// stamp queue-wait after the copy: the engine reset the trace, so
	// setting it earlier would be wiped.
	tr := sc.Trace
	tr.Set(obs.StageQueueWait, int64(start.Sub(t.enq)))
	p.col.record(lat, err != nil, &tr)
	if t.job.Delta != nil {
		p.col.recordDelta(rep.Cached, rep.Delta, err)
	}
	t.done(Result{Index: t.index, Reply: rep, Err: err, Latency: lat, Trace: tr})
}

// jobContext applies the per-job timeout; cancel is a no-op without one.
func (p *Pool) jobContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.opts.JobTimeout > 0 {
		return context.WithTimeout(ctx, p.opts.JobTimeout)
	}
	return ctx, func() {}
}

// deliver finishes a subscribed task once the flight it attached to
// settles; it runs on the leader's worker goroutine. A successful flight
// is the subscribed task's result (Cached, like any coalesced job; its
// latency is measured from when the task left the queue). The leader's
// failure is not inherited — it may be the leader's own cancellation — so
// the task is re-queued to run afresh, on its own goroutine so the leader
// worker is not stolen for the retry.
func (p *Pool) deliver(t task, start time.Time, rep engine.Reply, err error) {
	if cerr := t.ctx.Err(); cerr != nil {
		p.col.record(0, true, nil)
		t.done(Result{Index: t.index, Err: p.queueDeath(cerr)})
		return
	}
	if err == nil {
		lat := time.Since(start)
		// A subscriber's life is queue wait plus the wait behind the
		// leader's flight; the latter is this job's cache-lookup span
		// (coalesced lookups are cache reads that happen to block).
		var tr obs.Trace
		tr.Set(obs.StageQueueWait, int64(start.Sub(t.enq)))
		tr.Set(obs.StageCacheLookup, int64(lat))
		p.col.record(lat, false, &tr)
		if t.job.Delta != nil {
			p.col.recordDelta(rep.Cached, rep.Delta, nil)
		}
		t.done(Result{Index: t.index, Reply: rep, Latency: lat, Trace: tr})
		return
	}
	p.retryWG.Add(1)
	go func() {
		defer p.retryWG.Done()
		p.mu.RLock()
		if p.closed {
			p.mu.RUnlock()
			p.col.record(0, true, nil)
			t.done(Result{Index: t.index, Err: ErrPoolClosed})
			return
		}
		select {
		case p.tasks <- t:
			p.mu.RUnlock()
		case <-t.ctx.Done():
			p.mu.RUnlock()
			p.col.record(0, true, nil)
			t.done(Result{Index: t.index, Err: p.queueDeath(t.ctx.Err())})
		}
	}()
}

// queueDeath classifies the context error of a job that died waiting —
// in the queue, behind a coalesced flight, or during a re-queue — before
// any kernel work. A deadline death is wrapped so the serving layer can
// tell "expired while waiting" (504) apart from "expired mid-solve"
// (503), and counted; a plain cancellation passes through untouched.
func (p *Pool) queueDeath(err error) error {
	if !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	p.col.deadlineExpired.Add(1)
	return fmt.Errorf("%w: %w", ErrExpiredInQueue, err)
}

// Submit enqueues one job; done is invoked exactly once, on a worker
// goroutine, with the job's result. Submit blocks while the queue is full
// (backpressure) and returns ctx's error — without invoking done — when
// the context expires first. A job whose context expires while it is still
// queued is not solved; its result carries the context error (wrapped in
// ErrExpiredInQueue for deadline deaths). Once Close has begun, Submit
// returns ErrPoolClosed.
//
// The contract either way is exclusive: Submit returns nil and done fires
// exactly once, or Submit returns an error and done never fires. A
// submitter that loses the ctx race never leaks its queue slot — the send
// and the ctx branch are one select, so exactly one side commits.
//
// Holding mu.RLock across the (possibly blocking) send is deliberate and
// deadlock-free: the workers drain the queue without touching mu, so a
// blocked submitter always eventually sends or cancels and releases the
// lock, at which point Close's write lock can proceed. What the lock
// buys is ordering: Close can never close(tasks) under a submitter that
// has passed the closed check, so the send below never panics.
func (p *Pool) Submit(ctx context.Context, index int, job Job, done func(Result)) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	t := task{ctx: ctx, job: job, index: index, done: done, enq: time.Now()}
	// Try a non-blocking send first: when there is queue space, enqueueing
	// must win deterministically even if ctx is already done (a two-way
	// select with both sides ready picks at random). A dead-on-arrival job
	// then travels the normal queue path and is reported through done by
	// the dequeue-time expiry check — which is what keeps the admission
	// ledger exact: every job offered to a shard is accounted as solved,
	// shed, or expired, never silently dropped.
	select {
	case p.tasks <- t:
		return nil
	default:
	}
	select {
	case p.tasks <- t:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TrySubmit is Submit without backpressure: a full queue returns
// ErrQueueFull immediately — counted as a shed in Stats — instead of
// blocking. This is the admission-control path behind the serving
// layer's -shed flag; the caller turns ErrQueueFull into 429 with a
// Retry-After derived from QueueWaitP50. Allocation-free on both the
// accept and the shed path.
func (p *Pool) TrySubmit(ctx context.Context, index int, job Job, done func(Result)) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.tasks <- task{ctx: ctx, job: job, index: index, done: done, enq: time.Now()}:
		return nil
	default:
		p.col.shed.Add(1)
		return ErrQueueFull
	}
}

// QueueWaitP50 reads the median queue-wait off the live stage histogram
// — the Retry-After hint for shed requests: half of admitted jobs started
// within this long of enqueueing. Zero when nothing has been dequeued
// yet. Wait-free and allocation-free, like the shed path that calls it.
func (p *Pool) QueueWaitP50() time.Duration {
	return time.Duration(p.col.stages[obs.StageQueueWait].QuantileNS(0.50))
}

// Do solves one job synchronously on the pool and returns its result.
func (p *Pool) Do(ctx context.Context, job Job) Result {
	ch := make(chan Result, 1)
	if err := p.Submit(ctx, 0, job, func(r Result) { ch <- r }); err != nil {
		return Result{Err: err}
	}
	return <-ch
}

// Stats snapshots the pool's aggregate activity, including the result
// cache's counters when caching is enabled.
func (p *Pool) Stats() *mmlp.StatsRaw {
	st := p.col.snapshot()
	if p.cache != nil {
		cs := p.cache.Stats()
		st.Cache = &cs
	}
	return st
}

// Workers returns the fixed pool size.
func (p *Pool) Workers() int { return p.col.workers }

// ObserveStage feeds one externally measured span into the pool's stage
// histograms — the serving layer uses it for the response-encode stage,
// which by construction cannot be timed inside the solve it describes.
// Wait-free and allocation-free.
func (p *Pool) ObserveStage(s obs.Stage, d time.Duration) {
	if s < obs.NumStages {
		p.col.stages[s].Observe(d)
	}
}

// PruneCache removes cached results whose key fails keep and returns the
// number removed (0 when caching is disabled). The serving layer calls it
// when a ring cutover reassigns part of this process's key space.
func (p *Pool) PruneCache(keep func(canon.Key) bool) int {
	return p.cache.Prune(keep)
}

// Close stops accepting work, waits for in-flight submissions and queued
// jobs to finish and returns. Safe to call more than once. Close never
// deadlocks against blocked submitters: the workers keep draining the
// queue until Close acquires the lock, at which point no submitter holds
// it. Re-queue goroutines (subscribed tasks whose leader failed) are
// awaited after the workers: their retryWG.Add always happens on a worker
// goroutine, so it is ordered before wg.Wait returns.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
	p.retryWG.Wait()
}
