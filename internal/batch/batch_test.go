package batch_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	maxminlp "repro"
	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
)

// conformanceJobs builds a mixed-engine workload of varied shapes.
func conformanceJobs(t *testing.T) []batch.Job {
	t.Helper()
	var jobs []batch.Job
	for seed := int64(1); seed <= 6; seed++ {
		in := gen.Random(gen.RandomConfig{Agents: 12 + 2*int(seed), MaxDegI: 3, MaxDegK: 3, ExtraCons: 4, ExtraObjs: 2}, seed)
		jobs = append(jobs, batch.Job{In: in, Opts: engine.Options{R: 2 + int(seed%3), DisableSpecialCases: true}})
	}
	neck := gen.TriNecklace(6)
	jobs = append(jobs,
		batch.Job{In: neck, Opts: engine.Options{Engine: engine.Distributed, R: 3}},
		batch.Job{In: neck, Opts: engine.Options{Engine: engine.DistributedCompact, R: 3}},
		// Trivial shape: exercises the ΔK=1 special-case dispatch.
		batch.Job{In: gen.Random(gen.RandomConfig{Agents: 6, MaxDegI: 2, MaxDegK: 1}, 9), Opts: engine.Options{R: 3}},
	)
	return jobs
}

// TestBatchMatchesSequential is the conformance suite of the acceptance
// criteria: for every job, the pooled solve must return bit-identical
// T (upper bound) and X to the sequential public-API call.
func TestBatchMatchesSequential(t *testing.T) {
	jobs := conformanceJobs(t)
	for _, workers := range []int{1, 3, 8} {
		res, stats, err := batch.Solve(context.Background(), jobs, batch.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Jobs != int64(len(jobs)) || stats.Errors != 0 {
			t.Fatalf("workers=%d: stats = %+v", workers, stats)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, r.Err)
			}
			if r.Index != i {
				t.Fatalf("workers=%d: result %d has index %d", workers, i, r.Index)
			}
			want := sequential(t, jobs[i])
			if r.Sol.Status != want.Status || r.Sol.Utility != want.Utility || r.Sol.UpperBound != want.UpperBound {
				t.Fatalf("workers=%d job %d: got (%v, %v, %v), want (%v, %v, %v)",
					workers, i, r.Sol.Status, r.Sol.Utility, r.Sol.UpperBound,
					want.Status, want.Utility, want.UpperBound)
			}
			for v := range want.X {
				if r.Sol.X[v] != want.X[v] {
					t.Fatalf("workers=%d job %d: X[%d] = %v, want %v", workers, i, v, r.Sol.X[v], want.X[v])
				}
			}
		}
	}
}

// sequential solves one job through the public sequential surface.
func sequential(t *testing.T, j batch.Job) *maxminlp.Solution {
	t.Helper()
	opts := maxminlp.LocalOptions{
		R: j.Opts.R, BinIters: j.Opts.BinIters,
		DisableSpecialCases: j.Opts.DisableSpecialCases,
		CompactProtocol:     j.Opts.Engine == engine.DistributedCompact,
	}
	if j.Opts.Engine == engine.Central {
		sol, err := maxminlp.SolveLocal(j.In, opts)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	sol, _, err := maxminlp.SolveLocalDistributed(j.In, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestPoolMatchesSequential pushes jobs of different shapes through one
// pool so each worker's scratch is re-targeted across instances, and
// checks bit-identity against the sequential solve.
func TestPoolMatchesSequential(t *testing.T) {
	jobs := conformanceJobs(t)
	p := batch.NewPool(batch.Options{Workers: 2, Queue: 1})
	defer p.Close()
	for round := 0; round < 3; round++ {
		results := make([]batch.Result, len(jobs))
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			i := i
			if err := p.Submit(context.Background(), i, j, func(r batch.Result) {
				results[i] = r
				wg.Done()
			}); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("round %d job %d: %v", round, i, r.Err)
			}
			want := sequential(t, jobs[i])
			for v := range want.X {
				if r.Sol.X[v] != want.X[v] {
					t.Fatalf("round %d job %d: X[%d] = %v, want %v", round, i, v, r.Sol.X[v], want.X[v])
				}
			}
		}
	}
	st := p.Stats()
	if st.Jobs != int64(3*len(conformanceJobs(t))) || st.P50NS <= 0 || st.UptimeNS <= 0 {
		t.Fatalf("pool stats = %+v", st)
	}
}

// TestPoolCloseDuringSubmit closes the pool while submitters are applying
// backpressure on a full queue: no send may panic, every accepted
// submission must complete, and later submissions must see ErrPoolClosed.
func TestPoolCloseDuringSubmit(t *testing.T) {
	p := batch.NewPool(batch.Options{Workers: 1, Queue: 1})
	job := batch.Job{In: gen.TriNecklace(3), Opts: engine.Options{R: 3}}
	var accepted, completed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				err := p.Submit(context.Background(), i, job, func(batch.Result) { completed.Add(1) })
				if errors.Is(err, batch.ErrPoolClosed) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				accepted.Add(1)
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	p.Close()
	wg.Wait()
	if completed.Load() != accepted.Load() {
		t.Fatalf("accepted %d submissions but completed %d", accepted.Load(), completed.Load())
	}
	if err := p.Submit(context.Background(), 0, job, func(batch.Result) {}); !errors.Is(err, batch.ErrPoolClosed) {
		t.Fatalf("Submit after Close = %v, want ErrPoolClosed", err)
	}
}

// TestSolveCancellation cancels mid-batch: Solve must return the context
// error, every skipped job must carry it, and no result may be lost.
func TestSolveCancellation(t *testing.T) {
	in := gen.Random(gen.RandomConfig{Agents: 20, MaxDegI: 3, MaxDegK: 3, ExtraCons: 5, ExtraObjs: 2}, 1)
	jobs := make([]batch.Job, 200)
	for i := range jobs {
		jobs[i] = batch.Job{In: in, Opts: engine.Options{R: 3, DisableSpecialCases: true}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := batch.Solve(ctx, jobs, batch.Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range res {
		if r.Sol == nil && !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d: Sol=nil Err=%v", i, r.Err)
		}
	}
}

// TestJobTimeout gives jobs an expired deadline; the pipeline must stop at
// a stage boundary and report context.DeadlineExceeded.
func TestJobTimeout(t *testing.T) {
	in := gen.Random(gen.RandomConfig{Agents: 24, MaxDegI: 3, MaxDegK: 3, ExtraCons: 6, ExtraObjs: 3}, 1)
	jobs := []batch.Job{{In: in, Opts: engine.Options{R: 3, DisableSpecialCases: true}}}
	res, _, err := batch.Solve(context.Background(), jobs, batch.Options{Workers: 1, JobTimeout: time.Nanosecond})
	if err != nil {
		t.Fatalf("Solve err = %v (per-job deadlines must not fail the batch)", err)
	}
	if !errors.Is(res[0].Err, context.DeadlineExceeded) {
		t.Fatalf("job err = %v, want context.DeadlineExceeded", res[0].Err)
	}
}

// TestSolveWithCache submits a batch full of duplicate jobs: every result
// must stay bit-identical to the sequential solve, the duplicates must be
// answered by the cache (hits + coalesced waiters), and the stats must
// carry the cache counters.
func TestSolveWithCache(t *testing.T) {
	base := conformanceJobs(t)
	var jobs []batch.Job
	for rep := 0; rep < 4; rep++ {
		jobs = append(jobs, base...)
	}
	res, stats, err := batch.Solve(context.Background(), jobs, batch.Options{Workers: 4, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Cached {
			cached++
		}
		want := sequential(t, jobs[i])
		if r.Sol.Utility != want.Utility || r.Sol.UpperBound != want.UpperBound {
			t.Fatalf("job %d: (%v, %v), want (%v, %v)", i, r.Sol.Utility, r.Sol.UpperBound, want.Utility, want.UpperBound)
		}
		for v := range want.X {
			if r.Sol.X[v] != want.X[v] {
				t.Fatalf("job %d: X[%d] = %v, want %v", i, v, r.Sol.X[v], want.X[v])
			}
		}
	}
	if stats.Cache == nil {
		t.Fatal("stats carry no cache block")
	}
	// Each distinct job computes at most once... plus possibly coalesced
	// concurrent leaders' failures — with 4 reps of len(base) distinct
	// keys, at least 3×len(base) lookups were answered without a solve.
	if cached < 3*len(base) {
		t.Fatalf("cached results = %d, want ≥ %d (cache stats %+v)", cached, 3*len(base), stats.Cache)
	}
	if stats.Cache.Misses > int64(len(base)) {
		t.Fatalf("misses = %d, want ≤ %d distinct keys", stats.Cache.Misses, len(base))
	}
	if got := stats.Cache.Hits + stats.Cache.Coalesced; got < int64(3*len(base)) {
		t.Fatalf("hits+coalesced = %d, want ≥ %d", got, 3*len(base))
	}
}

// TestSolveWithoutCache: caching disabled means no cache block and no
// cached results, even on duplicate jobs.
func TestSolveWithoutCache(t *testing.T) {
	job := batch.Job{In: gen.TriNecklace(3), Opts: engine.Options{R: 3}}
	res, stats, err := batch.Solve(context.Background(), []batch.Job{job, job}, batch.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cache != nil {
		t.Fatalf("unexpected cache stats %+v", stats.Cache)
	}
	for i, r := range res {
		if r.Cached {
			t.Fatalf("job %d reported cached without a cache", i)
		}
	}
}

// TestPoolCacheConcurrent floods a cached pool with one hot key from many
// goroutines (run under -race in CI): the kernel must run far fewer times
// than the request count, every result must be bit-identical, and the
// counters must add up.
func TestPoolCacheConcurrent(t *testing.T) {
	const requests = 64
	in := gen.Random(gen.RandomConfig{Agents: 16, MaxDegI: 3, MaxDegK: 3, ExtraCons: 5, ExtraObjs: 2}, 11)
	job := batch.Job{In: in, Opts: engine.Options{R: 3, DisableSpecialCases: true}}
	want := sequential(t, job)

	p := batch.NewPool(batch.Options{Workers: 4, CacheBytes: 1 << 20, CacheShards: 4})
	defer p.Close()
	var wg sync.WaitGroup
	results := make([]batch.Result, requests)
	for g := 0; g < requests; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = p.Do(context.Background(), job)
		}(g)
	}
	wg.Wait()
	for g, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", g, r.Err)
		}
		for v := range want.X {
			if r.Sol.X[v] != want.X[v] {
				t.Fatalf("request %d: X[%d] = %v, want %v", g, v, r.Sol.X[v], want.X[v])
			}
		}
	}
	cs := p.Stats().Cache
	if cs == nil {
		t.Fatal("Stats().Cache = nil on a cached pool")
	}
	if cs.Hits+cs.Misses+cs.Coalesced != requests {
		t.Fatalf("hits+misses+coalesced = %d, want %d (stats %+v)", cs.Hits+cs.Misses+cs.Coalesced, requests, cs)
	}
	// One key: at most one solve per concurrent wave; with 4 workers the
	// kernel cannot have run more than a handful of times.
	if cs.Misses > 4 {
		t.Fatalf("misses = %d on a single hot key", cs.Misses)
	}
	if cs.Entries != 1 {
		t.Fatalf("entries = %d, want 1", cs.Entries)
	}
}

// TestJobFromRequest covers the wire conversions.
func TestJobFromRequest(t *testing.T) {
	in := gen.TriNecklace(4)
	job, err := batch.JobFromRequest(&mmlp.SolveRequest{Instance: in, Engine: mmlp.EngineDistCompact, R: 4})
	if err != nil {
		t.Fatal(err)
	}
	if job.Opts.Engine != engine.DistributedCompact || job.Opts.R != 4 {
		t.Fatalf("job opts = %+v", job.Opts)
	}
	if _, err := batch.JobFromRequest(&mmlp.SolveRequest{Instance: in, Engine: "simplex"}); !errors.Is(err, mmlp.ErrInvalid) {
		t.Fatalf("unknown engine err = %v", err)
	}
	if _, err := batch.JobFromRequest(&mmlp.SolveRequest{}); !errors.Is(err, mmlp.ErrInvalid) {
		t.Fatalf("missing instance err = %v", err)
	}
	if _, err := batch.JobFromRequest(&mmlp.SolveRequest{Instance: in, R: 1}); !errors.Is(err, mmlp.ErrInvalid) {
		t.Fatalf("bad R err = %v", err)
	}
}
