package engine_test

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/canon"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/obs"
)

// reweightEdit builds an edit set that doubles (or scales) the
// coefficients of the base's first canonical constraint row — the
// smallest semantically meaningful edit, valid against any instance with
// at least one constraint.
func reweightEdit(in *mmlp.Instance, factor float64) []mmlp.RowEdit {
	row := in.Canonical().Cons[0].Terms
	nt := make([]mmlp.Term, len(row))
	for j, tm := range row {
		nt[j] = mmlp.Term{Agent: tm.Agent, Coef: tm.Coef * factor}
	}
	return []mmlp.RowEdit{{
		Op:    mmlp.EditReweight,
		Kind:  mmlp.EditConstraint,
		Match: append([]mmlp.Term(nil), row...),
		Terms: nt,
	}}
}

// seedBase solves in under opts so the cache holds its delta record, and
// returns the base key.
func seedBase(t *testing.T, ca *engine.Cache, in *mmlp.Instance, opts engine.Options) canon.Key {
	t.Helper()
	if _, _, _, err := engine.SolveCached(context.Background(), in, opts, engine.NewScratch(), ca); err != nil {
		t.Fatalf("base solve: %v", err)
	}
	return engine.SolveKey(in, opts)
}

// TestSolveDeltaConformance is the tentpole acceptance check: for every
// engine, a delta solve is bit-identical to a cold solve of the edited
// instance. The centralised engine additionally stores the result, so a
// repeat of the same delta must hit the cache with the same bits; the
// message-passing engines never store (a spliced entry could not replay a
// traffic report), so a repeat re-prices.
func TestSolveDeltaConformance(t *testing.T) {
	ctx := context.Background()
	cases := map[string]struct {
		in     *mmlp.Instance
		opts   engine.Options
		stored bool
	}{
		"central":      {gen.Random(gen.RandomConfig{Agents: 18, MaxDegI: 3, MaxDegK: 3, ExtraCons: 5, ExtraObjs: 2}, 1), engine.Options{R: 3, DisableSpecialCases: true}, true},
		"central-r4":   {gen.Random(gen.RandomConfig{Agents: 14, MaxDegI: 3, MaxDegK: 3, ExtraCons: 4, ExtraObjs: 2}, 2), engine.Options{R: 4, DisableSpecialCases: true}, true},
		"dist":         {gen.TriNecklace(4), engine.Options{Engine: mmlp.EngineDistributed, R: 3}, false},
		"dist-compact": {gen.TriNecklace(4), engine.Options{Engine: mmlp.EngineDistributedCompact, R: 3}, false},
	}
	for name, c := range cases {
		ca := engine.NewCache(engine.CacheOptions{})
		base := seedBase(t, ca, c.in, c.opts)
		edits := reweightEdit(c.in, 2)

		edited, err := delta.Apply(c.in.Canonical(), edits)
		if err != nil {
			t.Fatalf("%s: apply: %v", name, err)
		}
		cold, _, err := engine.Solve(ctx, edited, c.opts)
		if err != nil {
			t.Fatalf("%s: cold solve of the edited instance: %v", name, err)
		}

		sol, out, cached, err := engine.SolveDelta(ctx, base, edits, engine.NewScratch(), ca)
		if err != nil {
			t.Fatalf("%s: delta solve: %v", name, err)
		}
		if cached {
			t.Fatalf("%s: first delta reported a cache hit", name)
		}
		equalSolutions(t, name+"/delta", sol, cold)
		if want := engine.SolveKey(edited, c.opts); out.Key != want {
			t.Fatalf("%s: delta key %s, want the edited instance's key %s", name, out.Key, want)
		}

		again, _, cached, err := engine.SolveDelta(ctx, base, edits, engine.NewScratch(), ca)
		if err != nil {
			t.Fatalf("%s: repeat delta: %v", name, err)
		}
		if cached != c.stored {
			t.Fatalf("%s: repeat delta cached = %v, want %v", name, cached, c.stored)
		}
		equalSolutions(t, name+"/repeat", again, cold)
	}
}

// TestSolveDeltaSplices pins the incremental path itself: on a large
// instance with the minimum horizon (R=2, ball radius 3), a one-row edit
// must dirty only a small neighbourhood, splice the rest from the base
// record, and still reproduce the cold solve bit for bit.
func TestSolveDeltaSplices(t *testing.T) {
	ctx := context.Background()
	in := gen.Random(gen.RandomConfig{Agents: 200, MaxDegI: 3, MaxDegK: 3, ExtraCons: 40, ExtraObjs: 10}, 11)
	opts := engine.Options{R: 2, DisableSpecialCases: true}
	ca := engine.NewCache(engine.CacheOptions{})
	base := seedBase(t, ca, in, opts)
	edits := reweightEdit(in, 3)

	edited, err := delta.Apply(in.Canonical(), edits)
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := engine.Solve(ctx, edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	sol, out, cached, err := engine.SolveDelta(ctx, base, edits, engine.NewScratch(), ca)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first delta reported a cache hit")
	}
	equalSolutions(t, "spliced", sol, cold)
	if !out.Spliced {
		t.Fatalf("outcome %+v: expected a spliced solve", out)
	}
	if out.DirtyAgents <= 0 || out.DirtyAgents >= out.TotalAgents {
		t.Fatalf("dirty %d of %d agents: expected a strict subset", out.DirtyAgents, out.TotalAgents)
	}
}

// TestSolveDeltaTraceStages: a spliced delta times its key prologue under
// the stages that name the work — edit application under delta_plan, the
// edited instance's canonicalization and hash under canonicalize and hash,
// as on a solve — and its kernel under the delta stages only. SelfCheck is
// on, so the splice must also pass the trace verification.
func TestSolveDeltaTraceStages(t *testing.T) {
	ctx := context.Background()
	in := gen.Random(gen.RandomConfig{Agents: 200, MaxDegI: 3, MaxDegK: 3, ExtraCons: 40, ExtraObjs: 10}, 11)
	opts := engine.Options{R: 2, DisableSpecialCases: true, SelfCheck: true}
	ca := engine.NewCache(engine.CacheOptions{})
	base := seedBase(t, ca, in, opts)
	sc := engine.NewScratch()
	_, out, _, err := engine.SolveDelta(ctx, base, reweightEdit(in, 3), sc, ca)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Spliced {
		t.Fatalf("outcome %+v: expected a spliced solve", out)
	}
	for _, st := range []obs.Stage{obs.StageCanonicalize, obs.StageHash, obs.StageDeltaPlan, obs.StageDeltaKernel, obs.StageDeltaSplice} {
		if sc.Trace.NS(st) <= 0 {
			t.Fatalf("spliced delta recorded no %s time: %v", st, sc.Trace.MSMap())
		}
	}
	for _, st := range []obs.Stage{obs.StageKernel, obs.StageBackMap} {
		if sc.Trace.NS(st) != 0 {
			t.Fatalf("spliced delta recorded %s time: %v", st, sc.Trace.MSMap())
		}
	}
}

// TestWarmDeltaOnWorkerScratchAllocs: a spliced delta on a worker's scratch
// prices its dirty ball on that scratch's evaluator, single-worker, instead
// of fanning a few dozen agents out over GOMAXPROCS goroutines that each
// allocate evaluator tables sized for the whole necklace.
func TestWarmDeltaOnWorkerScratchAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	in := gen.TriNecklace(1000)
	opts := engine.Options{R: 4, DisableSpecialCases: true}
	ca := engine.NewCache(engine.CacheOptions{MaxBytes: 1 << 30})
	base := seedBase(t, ca, in, opts)
	sc := engine.NewScratch()
	if _, _, _, err := engine.SolveDelta(ctx, base, reweightEdit(in, 2), sc, ca); err != nil {
		t.Fatal(err) // warms sc and the record's memoised base transform
	}
	// The fewest bytes over a few distinct edits: the race detector's
	// sync.Pool drops a quarter of its puts, which a single run can hit.
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, out, _, err := engine.SolveDelta(ctx, base, reweightEdit(in, float64(3+i)), sc, ca)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Spliced {
			t.Fatalf("outcome %+v: expected a spliced solve", out)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 1<<20 {
		t.Fatalf("warm spliced delta allocated %d bytes, want under 1 MiB", least)
	}
}

// TestSolveDeltaEmptyEdits: an empty edit set is the base itself — a pure
// cache hit, no kernel work.
func TestSolveDeltaEmptyEdits(t *testing.T) {
	ctx := context.Background()
	in := gen.Random(gen.RandomConfig{Agents: 18, MaxDegI: 3, MaxDegK: 3, ExtraCons: 5, ExtraObjs: 2}, 4)
	opts := engine.Options{R: 3, DisableSpecialCases: true}
	ca := engine.NewCache(engine.CacheOptions{})

	want, _, _, err := engine.SolveCached(ctx, in, opts, engine.NewScratch(), ca)
	if err != nil {
		t.Fatal(err)
	}
	base := engine.SolveKey(in, opts)
	sol, out, cached, err := engine.SolveDelta(ctx, base, nil, engine.NewScratch(), ca)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("empty edit set missed the cache")
	}
	equalSolutions(t, "empty-edits", sol, want)
	if out.Key != base {
		t.Fatalf("empty edit set changed the key: %s vs %s", out.Key, base)
	}
	if out.DirtyAgents != 0 || out.Spliced {
		t.Fatalf("outcome %+v: a cache hit must report no kernel work", out)
	}
}

// TestSolveDeltaRemoveLastObjective: an edit set that deletes every
// objective is a typed validation failure, not a solve.
func TestSolveDeltaRemoveLastObjective(t *testing.T) {
	in := mmlp.New(2)
	in.AddConstraint(0, 1, 1, 1)
	in.AddObjective(0, 1, 1, 1)
	opts := engine.Options{R: 3}
	ca := engine.NewCache(engine.CacheOptions{})
	base := seedBase(t, ca, in, opts)

	match := in.Canonical().Objs[0].Terms
	_, _, _, err := engine.SolveDelta(context.Background(), base, []mmlp.RowEdit{
		{Op: mmlp.EditRemove, Kind: mmlp.EditObjective, Match: match},
	}, engine.NewScratch(), ca)
	if !errors.Is(err, mmlp.ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
}

// TestSolveDeltaAllDirty: on a small instance the edit ball covers every
// agent — a full recompute, reported as such, and still bit-identical.
func TestSolveDeltaAllDirty(t *testing.T) {
	ctx := context.Background()
	in := gen.TriNecklace(3)
	opts := engine.Options{R: 3, DisableSpecialCases: true}
	ca := engine.NewCache(engine.CacheOptions{})
	base := seedBase(t, ca, in, opts)
	edits := reweightEdit(in, 2)

	edited, err := delta.Apply(in.Canonical(), edits)
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := engine.Solve(ctx, edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	sol, out, _, err := engine.SolveDelta(ctx, base, edits, engine.NewScratch(), ca)
	if err != nil {
		t.Fatal(err)
	}
	equalSolutions(t, "all-dirty", sol, cold)
	if out.Spliced {
		t.Fatalf("outcome %+v: a full recompute must not report a splice", out)
	}
	if out.DirtyAgents != out.TotalAgents || out.TotalAgents == 0 {
		t.Fatalf("outcome %+v: expected every agent dirty", out)
	}
}

// TestSolveDeltaBaseUnknown: a key never solved here — or evicted since —
// is the typed 404, both on a cold cache and after eviction.
func TestSolveDeltaBaseUnknown(t *testing.T) {
	ctx := context.Background()
	in := gen.Random(gen.RandomConfig{Agents: 12, MaxDegI: 3, MaxDegK: 3, ExtraCons: 4, ExtraObjs: 2}, 5)
	opts := engine.Options{R: 3, DisableSpecialCases: true}
	ca := engine.NewCache(engine.CacheOptions{})

	if _, _, _, err := engine.SolveDelta(ctx, engine.SolveKey(in, opts), nil, engine.NewScratch(), ca); !errors.Is(err, engine.ErrBaseUnknown) {
		t.Fatalf("cold cache: err = %v, want ErrBaseUnknown", err)
	}

	base := seedBase(t, ca, in, opts)
	ca.Prune(func(canon.Key) bool { return false }) // evict everything
	if _, _, _, err := engine.SolveDelta(ctx, base, nil, engine.NewScratch(), ca); !errors.Is(err, engine.ErrBaseUnknown) {
		t.Fatalf("after eviction: err = %v, want ErrBaseUnknown", err)
	}

	if _, _, _, err := engine.SolveDelta(ctx, base, nil, engine.NewScratch(), nil); !errors.Is(err, engine.ErrBaseUnknown) {
		t.Fatalf("nil cache: err = %v, want ErrBaseUnknown", err)
	}
}

// TestSolveDeltaChained: the delta result's key is itself a usable base —
// the centralised path stores a record for the edited instance, so a
// second edit prices against it without ever re-solving from scratch.
func TestSolveDeltaChained(t *testing.T) {
	ctx := context.Background()
	in := gen.Random(gen.RandomConfig{Agents: 18, MaxDegI: 3, MaxDegK: 3, ExtraCons: 5, ExtraObjs: 2}, 6)
	opts := engine.Options{R: 3, DisableSpecialCases: true}
	ca := engine.NewCache(engine.CacheOptions{})
	base := seedBase(t, ca, in, opts)

	first := reweightEdit(in, 2)
	_, out1, _, err := engine.SolveDelta(ctx, base, first, engine.NewScratch(), ca)
	if err != nil {
		t.Fatal(err)
	}
	once, err := delta.Apply(in.Canonical(), first)
	if err != nil {
		t.Fatal(err)
	}

	second := reweightEdit(once, 2)
	sol, out2, cached, err := engine.SolveDelta(ctx, out1.Key, second, engine.NewScratch(), ca)
	if err != nil {
		t.Fatalf("chained delta: %v", err)
	}
	if cached {
		t.Fatal("chained delta reported a cache hit")
	}
	twice, err := delta.Apply(once.Canonical(), second)
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := engine.Solve(ctx, twice, opts)
	if err != nil {
		t.Fatal(err)
	}
	equalSolutions(t, "chained", sol, cold)
	if want := engine.SolveKey(twice, opts); out2.Key != want {
		t.Fatalf("chained key %s, want %s", out2.Key, want)
	}
}

// TestDeltaKeyMatchesSolveKey: a delta's key is the edited instance's
// SolveKey whatever its edits touch in the base's canonical message — a
// row in the first 4 KiB chunk, a row straddling a chunk boundary, the
// last row in the short final chunk, a reweight that moves its row, rows
// in two chunks, and the added and removed rows that key in full. The
// necklace's message spans ~30 chunks, so a digest reused without its
// chunk's patch, or a patch at the wrong offset, gives a different key.
func TestDeltaKeyMatchesSolveKey(t *testing.T) {
	ctx := context.Background()
	in := gen.TriNecklace(1000)
	opts := engine.Options{R: 4, DisableSpecialCases: true}
	ca := engine.NewCache(engine.CacheOptions{MaxBytes: 1 << 30})
	base := seedBase(t, ca, in, opts)
	cin := in.Canonical()

	// Each row's span in the message: the header of an instance without
	// rows (less its two zero row counts), then each section's count and
	// fixed-width rows.
	const chunk = 4096
	msgLen := len(canon.EncodeSolve(cin, opts))
	off := len(canon.EncodeSolve(&mmlp.Instance{NumAgents: cin.NumAgents}, opts)) - 2
	span := func(n int) (int, int) { lo := off; off += 4 + 16*n; return lo, off }
	off += len(binary.AppendUvarint(nil, uint64(len(cin.Cons))))
	consLo := make([]int, len(cin.Cons))
	for i, c := range cin.Cons {
		consLo[i], _ = span(len(c.Terms))
	}
	off += len(binary.AppendUvarint(nil, uint64(len(cin.Objs))))
	straddle, last := -1, len(cin.Objs)-1
	for k, o := range cin.Objs {
		if lo, hi := span(len(o.Terms)); straddle < 0 && lo/chunk != (hi-1)/chunk {
			straddle = k
		}
	}
	if off != msgLen || msgLen%chunk == 0 || straddle < 0 {
		t.Fatalf("message layout: %d rows end at %d of %d bytes, straddling objective %d", len(cin.Cons)+len(cin.Objs), off, msgLen, straddle)
	}
	if consLo[0] >= chunk || msgLen/chunk < 2 {
		t.Fatalf("constraint 0 at %d in a %d-byte message: want it in chunk 0 of several", consLo[0], msgLen)
	}

	scale := func(kind string, terms []mmlp.Term, f float64) mmlp.RowEdit {
		nt := make([]mmlp.Term, len(terms))
		for j, tm := range terms {
			nt[j] = mmlp.Term{Agent: tm.Agent, Coef: tm.Coef * f}
		}
		return mmlp.RowEdit{Op: mmlp.EditReweight, Kind: kind, Match: terms, Terms: nt}
	}
	// A constraint followed by one with the same first agent and
	// coefficient moves past it when its coefficients double.
	move := -1
	for i := 0; i+1 < len(cin.Cons) && move < 0; i++ {
		if a, b := cin.Cons[i].Terms[0], cin.Cons[i+1].Terms[0]; a == b {
			move = i
		}
	}
	if move < 0 {
		t.Fatal("no constraint shares its first term with the next")
	}
	added := []mmlp.Term{{Agent: 5, Coef: 0.75}, {Agent: 9, Coef: 1.25}}
	cases := []struct {
		name  string
		edits []mmlp.RowEdit
	}{
		{"chunk-0", []mmlp.RowEdit{scale(mmlp.EditConstraint, cin.Cons[0].Terms, 1.5)}},
		{"straddling", []mmlp.RowEdit{scale(mmlp.EditObjective, cin.Objs[straddle].Terms, 0.75)}},
		{"last-row", []mmlp.RowEdit{scale(mmlp.EditObjective, cin.Objs[last].Terms, 1.25)}},
		{"moving", []mmlp.RowEdit{scale(mmlp.EditConstraint, cin.Cons[move].Terms, 2)}},
		{"two-chunks", []mmlp.RowEdit{
			scale(mmlp.EditObjective, cin.Objs[last].Terms, 0.5),
			scale(mmlp.EditConstraint, cin.Cons[0].Terms, 1.75),
		}},
		{"add", []mmlp.RowEdit{{Op: mmlp.EditAdd, Kind: mmlp.EditConstraint, Terms: added}}},
		{"remove", []mmlp.RowEdit{{Op: mmlp.EditRemove, Kind: mmlp.EditConstraint, Match: cin.Cons[7].Terms}}},
	}
	for _, c := range cases {
		edited, err := delta.Apply(cin, c.edits)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.name == "moving" && !slices.Equal(edited.Cons[move].Terms, cin.Cons[move+1].Terms) {
			t.Fatalf("moving: constraint %d kept its place", move)
		}
		_, out, cached, err := engine.SolveDelta(ctx, base, c.edits, engine.NewScratch(), ca)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cached {
			t.Fatalf("%s: the edited key was already cached", c.name)
		}
		if want := engine.SolveKey(edited, opts); out.Key != want {
			t.Fatalf("%s: delta key %s, want the edited instance's key %s", c.name, out.Key, want)
		}
	}
}
