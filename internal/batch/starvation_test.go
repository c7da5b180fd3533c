package batch_test

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
)

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescedDuplicateDoesNotStarveWorkers is the regression for the
// worker-starvation bug: a duplicate of an in-flight cold key used to park
// its worker inside the cache until the leader finished, so on a 2-worker
// pool one slow solve plus one duplicate wedged the whole pool. Now the
// duplicate subscribes to the in-flight solve and the worker returns to the
// queue: a stream of other keys must keep completing while the cold key is
// still being solved.
func TestCoalescedDuplicateDoesNotStarveWorkers(t *testing.T) {
	// One deliberately heavy job (a few hundred ms: a 400-agent
	// message-passing run) against trivially small fast jobs.
	slow := batch.Job{
		In:   gen.Random(gen.RandomConfig{Agents: 400, MaxDegI: 3, MaxDegK: 3, ExtraCons: 8, ExtraObjs: 4}, 5),
		Opts: engine.Options{Engine: mmlp.EngineDistributedCompact, R: 5, BinIters: 4000},
	}
	p := batch.NewPool(batch.Options{Workers: 2, Queue: 32, CacheBytes: 8 << 20})
	defer p.Close()
	ctx := context.Background()

	leaderCh := make(chan batch.Result, 1)
	if err := p.Submit(ctx, 0, slow, func(r batch.Result) { leaderCh <- r }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "leader to start solving", func() bool {
		st := p.Stats()
		return st.Cache != nil && st.Cache.Misses >= 1
	})

	var dupDone atomic.Bool
	dupCh := make(chan batch.Result, 1)
	if err := p.Submit(ctx, 1, slow, func(r batch.Result) { dupDone.Store(true); dupCh <- r }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "duplicate to coalesce onto the flight", func() bool {
		st := p.Stats()
		return st.Cache != nil && st.Cache.Coalesced >= 1
	})

	// With the leader mid-solve and the duplicate coalesced, every worker
	// must still be available: a handful of small distinct jobs has to
	// complete while the cold key is in flight.
	const fast = 6
	fastCh := make(chan batch.Result, fast)
	for i := 0; i < fast; i++ {
		job := batch.Job{In: gen.TriNecklace(3 + i), Opts: engine.Options{R: 3}}
		if err := p.Submit(ctx, 2+i, job, func(r batch.Result) { fastCh <- r }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < fast; i++ {
		select {
		case r := <-fastCh:
			if r.Err != nil {
				t.Fatalf("fast job %d failed: %v", r.Index, r.Err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("fast jobs starved while a duplicate coalesced on a cold key")
		}
	}
	if dupDone.Load() {
		t.Fatal("duplicate finished before the fast jobs — the leader was not actually in flight, calibrate the slow job up")
	}

	leader := <-leaderCh
	dup := <-dupCh
	if leader.Err != nil || dup.Err != nil {
		t.Fatalf("slow jobs failed: leader=%v dup=%v", leader.Err, dup.Err)
	}
	if leader.Cached {
		t.Fatal("leader reported Cached")
	}
	if !dup.Cached {
		t.Fatal("duplicate did not report Cached")
	}
	if len(leader.Sol.X) != len(dup.Sol.X) {
		t.Fatalf("solution sizes differ: %d vs %d", len(leader.Sol.X), len(dup.Sol.X))
	}
	for i := range leader.Sol.X {
		if math.Float64bits(leader.Sol.X[i]) != math.Float64bits(dup.Sol.X[i]) {
			t.Fatalf("X[%d] differs between leader and coalesced duplicate", i)
		}
	}
	// The duplicate's solution is a private copy, not a view of the
	// leader's (or the cache's) backing array.
	dup.Sol.X[0] = -1
	if leader.Sol.X[0] == -1 {
		t.Fatal("duplicate shares its X backing array with the leader")
	}
}

// TestSubscribedTaskRetriesAfterLeaderFailure: when the leader's solve
// fails (here: its context times out via JobTimeout), a subscribed
// duplicate must not inherit the failure — it re-queues and solves on its
// own, under a fresh timeout window.
func TestSubscribedTaskRetriesAfterLeaderFailure(t *testing.T) {
	slow := batch.Job{
		In:   gen.Random(gen.RandomConfig{Agents: 400, MaxDegI: 3, MaxDegK: 3, ExtraCons: 8, ExtraObjs: 4}, 5),
		Opts: engine.Options{Engine: mmlp.EngineDistributedCompact, R: 5, BinIters: 4000},
	}
	p := batch.NewPool(batch.Options{Workers: 2, Queue: 8, CacheBytes: 8 << 20})
	defer p.Close()

	// The leader's own context is cancelled mid-solve; the duplicate runs
	// with a live context and must succeed on retry.
	lctx, lcancel := context.WithCancel(context.Background())
	leaderCh := make(chan batch.Result, 1)
	if err := p.Submit(lctx, 0, slow, func(r batch.Result) { leaderCh <- r }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "leader to start solving", func() bool {
		st := p.Stats()
		return st.Cache != nil && st.Cache.Misses >= 1
	})
	dupCh := make(chan batch.Result, 1)
	if err := p.Submit(context.Background(), 1, slow, func(r batch.Result) { dupCh <- r }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "duplicate to coalesce onto the flight", func() bool {
		st := p.Stats()
		return st.Cache != nil && st.Cache.Coalesced >= 1
	})
	lcancel()

	leader := <-leaderCh
	if leader.Err == nil {
		t.Fatal("cancelled leader reported success")
	}
	select {
	case dup := <-dupCh:
		if dup.Err != nil {
			t.Fatalf("duplicate inherited the leader's failure: %v", dup.Err)
		}
		if dup.Sol == nil || len(dup.Sol.X) == 0 {
			t.Fatal("duplicate retry returned no solution")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("duplicate never finished after the leader failed")
	}
}

// TestCoalescedDeltaDoesNotStarveWorkers is the delta twin of
// TestCoalescedDuplicateDoesNotStarveWorkers: a burst of identical deltas
// on a slow edited key ties up one worker (the leader's), while the
// duplicates subscribe to its flight and fast jobs keep completing. The
// delta counters stay exact on the subscriber path: one miss (the
// leader's, with its dirty agents), one hit per coalesced duplicate.
func TestCoalescedDeltaDoesNotStarveWorkers(t *testing.T) {
	// A centralised base whose radius-(4r+3) ball at R=8 covers every
	// agent, so the delta re-prices the whole instance: a few hundred ms.
	in := gen.Random(gen.RandomConfig{Agents: 300, MaxDegI: 3, MaxDegK: 3, ExtraCons: 8, ExtraObjs: 4}, 5)
	opts := engine.Options{R: 8, DisableSpecialCases: true}
	p := batch.NewPool(batch.Options{Workers: 2, Queue: 32, CacheBytes: 8 << 20})
	defer p.Close()
	ctx := context.Background()
	if r := p.Do(ctx, batch.Job{In: in, Opts: opts}); r.Err != nil {
		t.Fatal(r.Err)
	}
	row := in.Canonical().Cons[0].Terms
	scaled := make([]mmlp.Term, len(row))
	for j, tm := range row {
		scaled[j] = mmlp.Term{Agent: tm.Agent, Coef: 2 * tm.Coef}
	}
	slow := batch.Job{Delta: &batch.DeltaJob{
		Base:  engine.SolveKey(in, opts),
		Edits: []mmlp.RowEdit{{Op: mmlp.EditReweight, Kind: mmlp.EditConstraint, Match: row, Terms: scaled}},
	}}

	leaderCh := make(chan batch.Result, 1)
	if err := p.Submit(ctx, 0, slow, func(r batch.Result) { leaderCh <- r }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "leader to start pricing the delta", func() bool {
		return p.Stats().Cache.Misses >= 2 // the base solve, then the delta
	})
	const dups = 3
	var dupDone atomic.Int32
	dupCh := make(chan batch.Result, dups)
	for i := 0; i < dups; i++ {
		if err := p.Submit(ctx, 1+i, slow, func(r batch.Result) { dupDone.Add(1); dupCh <- r }); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "duplicates to coalesce onto the flight", func() bool {
		return p.Stats().Cache.Coalesced >= dups
	})

	const fast = 6
	fastCh := make(chan batch.Result, fast)
	for i := 0; i < fast; i++ {
		job := batch.Job{In: gen.TriNecklace(3 + i), Opts: engine.Options{R: 3}}
		if err := p.Submit(ctx, 10+i, job, func(r batch.Result) { fastCh <- r }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < fast; i++ {
		select {
		case r := <-fastCh:
			if r.Err != nil {
				t.Fatalf("fast job %d failed: %v", r.Index, r.Err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("fast jobs starved while duplicate deltas coalesced on a slow key")
		}
	}
	if dupDone.Load() != 0 {
		t.Fatal("a duplicate finished before the fast jobs — the leader was not actually in flight, calibrate the slow delta up")
	}

	leader := <-leaderCh
	if leader.Err != nil || leader.Cached || leader.Delta == nil || leader.Delta.DirtyAgents == 0 {
		t.Fatalf("leader: err=%v cached=%v outcome=%+v", leader.Err, leader.Cached, leader.Delta)
	}
	for i := 0; i < dups; i++ {
		dup := <-dupCh
		if dup.Err != nil || !dup.Cached || dup.Delta == nil || dup.Delta.Key != leader.Delta.Key || dup.Delta.DirtyAgents != 0 {
			t.Fatalf("duplicate %d: err=%v cached=%v outcome=%+v", dup.Index, dup.Err, dup.Cached, dup.Delta)
		}
		for v := range leader.Sol.X {
			if math.Float64bits(leader.Sol.X[v]) != math.Float64bits(dup.Sol.X[v]) {
				t.Fatalf("duplicate %d: X[%d] differs from the leader's", dup.Index, v)
			}
		}
	}
	st := p.Stats()
	if st.DeltaMisses != 1 || st.DeltaHits != dups || st.DirtyAgents != int64(leader.Delta.DirtyAgents) {
		t.Fatalf("delta counters: misses=%d hits=%d dirty=%d, want 1/%d/%d",
			st.DeltaMisses, st.DeltaHits, st.DirtyAgents, dups, leader.Delta.DirtyAgents)
	}
	if cs := st.Cache; cs.Hits+cs.Misses+cs.Coalesced != int64(2+dups+fast) {
		t.Fatalf("cache counters %+v do not add up to %d lookups", cs, 2+dups+fast)
	}
}
