package engine_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
)

// conformanceCases covers every pipeline outcome a cache entry can hold:
// the general approximate path on all three engines, both trivial-case
// dispatches, and a zero-optimum instance.
func conformanceCases() map[string]struct {
	in   *mmlp.Instance
	opts engine.Options
} {
	zero := mmlp.New(2)
	zero.AddConstraint(0, 1, 1, 1)
	zero.AddObjective(0, 1)
	zero.AddObjective() // empty objective: optimum 0
	return map[string]struct {
		in   *mmlp.Instance
		opts engine.Options
	}{
		"central":      {gen.Random(gen.RandomConfig{Agents: 18, MaxDegI: 3, MaxDegK: 3, ExtraCons: 5, ExtraObjs: 2}, 1), engine.Options{R: 3, DisableSpecialCases: true}},
		"central-r4":   {gen.Random(gen.RandomConfig{Agents: 14, MaxDegI: 3, MaxDegK: 3, ExtraCons: 4, ExtraObjs: 2}, 2), engine.Options{R: 4, DisableSpecialCases: true}},
		"dist":         {gen.TriNecklace(4), engine.Options{Engine: mmlp.EngineDistributed, R: 3}},
		"dist-compact": {gen.TriNecklace(4), engine.Options{Engine: mmlp.EngineDistributedCompact, R: 3}},
		"trivial-dk1":  {gen.Random(gen.RandomConfig{Agents: 6, MaxDegI: 2, MaxDegK: 1}, 3), engine.Options{R: 3}},
		"zero-optimum": {zero, engine.Options{R: 3}},
	}
}

// equalSolutions demands bitwise equality of every field.
func equalSolutions(t *testing.T, name string, got, want *engine.Solution) {
	t.Helper()
	if got.Status != want.Status || got.Utility != want.Utility || got.UpperBound != want.UpperBound {
		t.Fatalf("%s: got (%v, %v, %v), want (%v, %v, %v)",
			name, got.Status, got.Utility, got.UpperBound, want.Status, want.Utility, want.UpperBound)
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: len(X) = %d, want %d", name, len(got.X), len(want.X))
	}
	for v := range want.X {
		if got.X[v] != want.X[v] {
			t.Fatalf("%s: X[%d] = %v, want %v", name, v, got.X[v], want.X[v])
		}
	}
}

// TestSolveCachedConformance is the acceptance-criteria check: for every
// case, the cache-miss result and the subsequent cache-hit result are both
// bit-identical to a cold Solve, including the DistInfo of the
// message-passing engines.
func TestSolveCachedConformance(t *testing.T) {
	ctx := context.Background()
	ca := engine.NewCache(engine.CacheOptions{})
	for name, c := range conformanceCases() {
		cold, coldInfo, err := engine.Solve(ctx, c.in, c.opts)
		if err != nil {
			t.Fatalf("%s: cold solve: %v", name, err)
		}
		miss, missInfo, cached, err := engine.SolveCached(ctx, c.in, c.opts, engine.NewScratch(), ca)
		if err != nil {
			t.Fatalf("%s: miss solve: %v", name, err)
		}
		if cached {
			t.Fatalf("%s: first solve reported a cache hit", name)
		}
		hit, hitInfo, cached, err := engine.SolveCached(ctx, c.in, c.opts, engine.NewScratch(), ca)
		if err != nil {
			t.Fatalf("%s: hit solve: %v", name, err)
		}
		if !cached {
			t.Fatalf("%s: second solve missed the cache", name)
		}
		equalSolutions(t, name+"/miss", miss, cold)
		equalSolutions(t, name+"/hit", hit, cold)
		if (coldInfo == nil) != (hitInfo == nil) || (coldInfo != nil && *hitInfo != *coldInfo) {
			t.Fatalf("%s: hit DistInfo %+v, want %+v", name, hitInfo, coldInfo)
		}
		if missInfo != nil && *missInfo != *coldInfo {
			t.Fatalf("%s: miss DistInfo %+v, want %+v", name, missInfo, coldInfo)
		}
	}
	st := ca.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("cache stats = %+v", st)
	}
}

// reversedCopy flips the row order of both sections and the term order
// within every row — the harshest semantics-preserving permutation for
// floating-point summation order.
func reversedCopy(in *mmlp.Instance) *mmlp.Instance {
	out := in.Clone()
	for l, r := 0, len(out.Cons)-1; l < r; l, r = l+1, r-1 {
		out.Cons[l], out.Cons[r] = out.Cons[r], out.Cons[l]
	}
	for l, r := 0, len(out.Objs)-1; l < r; l, r = l+1, r-1 {
		out.Objs[l], out.Objs[r] = out.Objs[r], out.Objs[l]
	}
	for i := range out.Cons {
		ts := out.Cons[i].Terms
		for l, r := 0, len(ts)-1; l < r; l, r = l+1, r-1 {
			ts[l], ts[r] = ts[r], ts[l]
		}
	}
	for k := range out.Objs {
		ts := out.Objs[k].Terms
		for l, r := 0, len(ts)-1; l < r; l, r = l+1, r-1 {
			ts[l], ts[r] = ts[r], ts[l]
		}
	}
	return out
}

// TestSolveCachedPermutationConformance: the cache key is invariant under
// term/row permutation, so the solver must be too — a permuted duplicate
// hits the original's entry, and that entry's bits must be exactly what a
// cold solve of the permutation produces. The pipeline guarantees this by
// canonicalizing order at entry.
func TestSolveCachedPermutationConformance(t *testing.T) {
	ctx := context.Background()
	// These seeds are known to produce different output bits under term/row
	// reversal when the pipeline does not canonicalize (13 of the first 300
	// diverge) — without mmlp.Canonical at pipeline entry, every one fails.
	for _, seed := range []int64{1, 42, 43, 45, 49, 83, 110, 116, 123, 158} {
		in := gen.Random(gen.RandomConfig{Agents: 40, MaxDegI: 4, MaxDegK: 4, ExtraCons: 12, ExtraObjs: 8}, seed)
		perm := reversedCopy(in)
		opts := engine.Options{R: 4, DisableSpecialCases: true}

		cold, _, err := engine.Solve(ctx, in, opts)
		if err != nil {
			t.Fatal(err)
		}
		coldPerm, _, err := engine.Solve(ctx, perm, opts)
		if err != nil {
			t.Fatal(err)
		}
		equalSolutions(t, "cold-vs-cold-permuted", coldPerm, cold)

		ca := engine.NewCache(engine.CacheOptions{})
		if _, _, _, err := engine.SolveCached(ctx, in, opts, nil, ca); err != nil {
			t.Fatal(err)
		}
		hit, _, cached, err := engine.SolveCached(ctx, perm, opts, nil, ca)
		if err != nil {
			t.Fatal(err)
		}
		if !cached {
			t.Fatalf("seed %d: permuted duplicate missed the cache", seed)
		}
		equalSolutions(t, "hit-vs-cold-permuted", hit, coldPerm)
	}
}

// TestSolveCachedIsolation: a hit hands out a private copy, so a caller
// mutating its X cannot poison later hits.
func TestSolveCachedIsolation(t *testing.T) {
	ctx := context.Background()
	ca := engine.NewCache(engine.CacheOptions{})
	in := gen.Random(gen.RandomConfig{Agents: 12, MaxDegI: 3, MaxDegK: 3, ExtraCons: 4, ExtraObjs: 2}, 7)
	opts := engine.Options{R: 3, DisableSpecialCases: true}

	first, _, _, err := engine.SolveCached(ctx, in, opts, nil, ca)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), first.X...)
	for v := range first.X {
		first.X[v] = -1 // caller scribbles on its copy
	}
	second, _, cached, err := engine.SolveCached(ctx, in, opts, nil, ca)
	if err != nil || !cached {
		t.Fatalf("second solve: cached=%v err=%v", cached, err)
	}
	for v := range want {
		if second.X[v] != want[v] {
			t.Fatalf("X[%d] = %v, want %v: cached entry was mutated", v, second.X[v], want[v])
		}
	}
}

// TestSolveCachedKeySeparation: distinct options on one instance occupy
// distinct cache lines.
func TestSolveCachedKeySeparation(t *testing.T) {
	ctx := context.Background()
	ca := engine.NewCache(engine.CacheOptions{})
	in := gen.Random(gen.RandomConfig{Agents: 12, MaxDegI: 3, MaxDegK: 3, ExtraCons: 4, ExtraObjs: 2}, 8)

	r3, _, _, err := engine.SolveCached(ctx, in, engine.Options{R: 3, DisableSpecialCases: true}, nil, ca)
	if err != nil {
		t.Fatal(err)
	}
	r5, _, cached, err := engine.SolveCached(ctx, in, engine.Options{R: 5, DisableSpecialCases: true}, nil, ca)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("R=5 solve hit the R=3 entry")
	}
	if r3.UpperBound == r5.UpperBound && r3.Utility == r5.Utility {
		t.Log("R=3 and R=5 agree on this instance (allowed, not asserted)")
	}
	if st := ca.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
}

// TestSolveCachedErrorsNotCached: failed solves leave the key cold and are
// re-attempted.
func TestSolveCachedErrorsNotCached(t *testing.T) {
	ctx := context.Background()
	ca := engine.NewCache(engine.CacheOptions{})
	bad := mmlp.New(1)
	bad.AddConstraint(0, -1) // negative coefficient: validation fails

	for i := 0; i < 2; i++ {
		if _, _, _, err := engine.SolveCached(ctx, bad, engine.Options{R: 3}, nil, ca); !errors.Is(err, mmlp.ErrInvalid) {
			t.Fatalf("attempt %d: err = %v, want ErrInvalid", i, err)
		}
	}
	if st := ca.Stats(); st.Misses != 2 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want two misses and no entries", st)
	}
}

// TestSolveCachedNil: a nil cache is a pass-through to SolveScratch.
func TestSolveCachedNil(t *testing.T) {
	in := gen.TriNecklace(3)
	sol, _, cached, err := engine.SolveCached(context.Background(), in, engine.Options{R: 3}, nil, nil)
	if err != nil || cached || sol == nil {
		t.Fatalf("nil-cache solve: sol=%v cached=%v err=%v", sol, cached, err)
	}
}
