package engine_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/canon"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
)

// reweightRow scales the coefficients of canonical constraint row i of in.
func reweightRow(in *mmlp.Instance, i int, factor float64) []mmlp.RowEdit {
	row := in.Canonical().Cons[i].Terms
	nt := make([]mmlp.Term, len(row))
	for j, tm := range row {
		nt[j] = mmlp.Term{Agent: tm.Agent, Coef: tm.Coef * factor}
	}
	return []mmlp.RowEdit{{Op: mmlp.EditReweight, Kind: mmlp.EditConstraint, Match: row, Terms: nt}}
}

// TestWarmSplicedDeltaWork: a warm spliced delta on the 3,000-agent
// necklace pays for its ball, not for the instance — no deep copies of the
// base, no per-row hash buffers, no seen-arrays or tail sized for every
// agent. What is left is the transform's arena-backed work, the record's
// t-vector and the back-mapped solution.
func TestWarmSplicedDeltaWork(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	in := gen.TriNecklace(1000)
	opts := engine.Options{R: 4, DisableSpecialCases: true}
	ca := engine.NewCache(engine.CacheOptions{MaxBytes: 1 << 30})
	base := seedBase(t, ca, in, opts)
	sc := engine.NewScratch()
	if _, _, _, err := engine.SolveDelta(ctx, base, reweightEdit(in, 2), sc, ca); err != nil {
		t.Fatal(err) // warms sc and the record's memoised base
	}
	// The fewest over several distinct edits: the race detector's sync.Pool
	// drops a quarter of its puts, and a dropped hasher costs a run its
	// message buffer.
	objects, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 8; i++ {
		edits := reweightEdit(in, float64(3+i))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, out, _, err := engine.SolveDelta(ctx, base, edits, sc, ca)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Spliced {
			t.Fatalf("outcome %+v: expected a spliced solve", out)
		}
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if objects > 100 || bytes > 320<<10 {
		t.Fatalf("warm spliced delta allocated %d objects and %d bytes, want at most 100 and 320 KiB", objects, bytes)
	}
}

// TestConcurrentDeltasShareBase runs deltas against one base concurrently
// — repeats of one edit coalescing, distinct edits building and sharing
// the record's memo, chained deltas whose instances share rows with the
// base — beside a cold solve of the base. Every answer must be the bits of
// a cold solve computed beforehand: the shared rows and the memo are
// read-only. Run under -race.
func TestConcurrentDeltasShareBase(t *testing.T) {
	ctx := context.Background()
	in := gen.TriNecklace(40)
	cin := in.Canonical()
	opts := engine.Options{R: 3, DisableSpecialCases: true}
	ca := engine.NewCache(engine.CacheOptions{})
	base := seedBase(t, ca, in, opts)
	baseWant, _, err := engine.Solve(ctx, cin, opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	edits := make([][]mmlp.RowEdit, n)
	chains := make([][]mmlp.RowEdit, n)
	want := make([]*engine.Solution, n)
	chainWant := make([]*engine.Solution, n)
	for i := range edits {
		edits[i] = reweightRow(cin, 7*i, 1.5)
		once, err := delta.Apply(cin, edits[i])
		if err != nil {
			t.Fatal(err)
		}
		chains[i] = reweightRow(once, 7*i+3, 0.75)
		twice, err := delta.Apply(once, chains[i])
		if err != nil {
			t.Fatal(err)
		}
		if want[i], _, err = engine.Solve(ctx, once, opts); err != nil {
			t.Fatal(err)
		}
		if chainWant[i], _, err = engine.Solve(ctx, twice, opts); err != nil {
			t.Fatal(err)
		}
	}

	type result struct {
		name      string
		got, want *engine.Solution
		err       error
	}
	results := make(chan result, 2*n+1)
	var wg sync.WaitGroup
	run := func(name string, want *engine.Solution, f func() (*engine.Solution, error)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sol, err := f()
			results <- result{name, sol, want, err}
		}()
	}
	check := func() {
		wg.Wait()
		close(results)
		for r := range results {
			if r.err != nil {
				t.Fatalf("%s: %v", r.name, r.err)
			}
			equalSolutions(t, r.name, r.got, r.want)
		}
	}
	run("cold base", baseWant, func() (*engine.Solution, error) {
		sol, _, err := engine.Solve(ctx, cin, opts)
		return sol, err
	})
	keys := make([]canon.Key, n)
	for i := 0; i < n; i++ {
		for rep := 0; rep < 2; rep++ {
			run(fmt.Sprintf("delta %d/%d", i, rep), want[i], func() (*engine.Solution, error) {
				sol, out, _, err := engine.SolveDelta(ctx, base, edits[i], engine.NewScratch(), ca)
				if err == nil && rep == 0 {
					keys[i] = out.Key
				}
				return sol, err
			})
		}
	}
	check()

	results = make(chan result, n)
	for i := 0; i < n; i++ {
		run(fmt.Sprintf("chain %d", i), chainWant[i], func() (*engine.Solution, error) {
			sol, _, _, err := engine.SolveDelta(ctx, keys[i], chains[i], engine.NewScratch(), ca)
			return sol, err
		})
	}
	check()
}
