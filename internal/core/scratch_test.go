package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/structured"
)

// TestSolveScratchMatchesSolve reuses one Scratch across instances of
// different sizes and radii and requires bit-identical traces throughout —
// a stale buffer or memo slot surviving a reset would show up here.
func TestSolveScratchMatchesSolve(t *testing.T) {
	sc := &Scratch{}
	cases := []struct {
		objs, extra int
		R           int
		seed        int64
	}{
		{40, 20, 3, 1},
		{8, 4, 2, 2},
		{25, 12, 4, 3},
		{40, 20, 3, 1}, // repeat of the first: exercises shrink-then-grow
		{3, 2, 6, 4},
	}
	for _, c := range cases {
		in := gen.RandomStructured(gen.StructuredConfig{Objectives: c.objs, MaxDegK: 3, ExtraCons: c.extra}, c.seed)
		s, err := structured.FromMMLP(in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(s, Options{R: c.R})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveScratch(s, Options{R: c.R}, sc)
		if err != nil {
			t.Fatal(err)
		}
		if got.UpperBound != want.UpperBound {
			t.Fatalf("objs=%d R=%d: UpperBound %v != %v", c.objs, c.R, got.UpperBound, want.UpperBound)
		}
		for v := range want.X {
			if got.X[v] != want.X[v] {
				t.Fatalf("objs=%d R=%d: X[%d] = %v != %v", c.objs, c.R, v, got.X[v], want.X[v])
			}
			if got.T[v] != want.T[v] || got.S[v] != want.S[v] {
				t.Fatalf("objs=%d R=%d: T/S mismatch at agent %d", c.objs, c.R, v)
			}
		}
		for d := range want.GPlus {
			for v := range want.GPlus[d] {
				if got.GPlus[d][v] != want.GPlus[d][v] || got.GMinus[d][v] != want.GMinus[d][v] {
					t.Fatalf("objs=%d R=%d: g± mismatch at d=%d v=%d", c.objs, c.R, d, v)
				}
			}
		}
	}
}

// TestSolveScratchSteadyStateAllocs verifies the warm scratch path stops
// allocating in the kernel: after one warm-up solve, repeat solves of the
// same shape allocate only the Trace header.
func TestSolveScratchSteadyStateAllocs(t *testing.T) {
	in := gen.RandomStructured(gen.StructuredConfig{Objectives: 30, MaxDegK: 3, ExtraCons: 15}, 7)
	s, err := structured.FromMMLP(in)
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scratch{}
	if _, err := SolveScratch(s, Options{R: 3}, sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := SolveScratch(s, Options{R: 3}, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 { // the *Trace itself
		t.Fatalf("steady-state SolveScratch allocates %.1f objects per run", allocs)
	}
}

// TestScratchWorkerCountsMatchSolve reuses one Scratch across worker
// counts 1, 2, 4 and 1 again, each over instances that shrink and grow,
// and requires every trace to be bit-identical to Solve at one worker: an
// evaluator of the scratch that kept a stale memo slot or table shape from
// an earlier count or instance would show up here. The upper bound must be
// the minimum of T (Lemma 2's certificate), which every tail computes in
// the one loop this pins.
func TestScratchWorkerCountsMatchSolve(t *testing.T) {
	type inst struct {
		s *structured.Instance
		R int
	}
	var insts []inst
	for i, c := range []struct{ objs, extra, R int }{{40, 20, 3}, {8, 4, 2}, {60, 30, 4}, {3, 2, 5}, {25, 12, 3}} {
		in := gen.RandomStructured(gen.StructuredConfig{Objectives: c.objs, MaxDegK: 3, ExtraCons: c.extra}, int64(i+1))
		s, err := structured.FromMMLP(in)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst{s, c.R})
	}
	sc := &Scratch{}
	for _, workers := range []int{1, 2, 4, 1} {
		for _, c := range insts {
			want, err := Solve(c.s, Options{R: c.R, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{R: c.R, Workers: workers}
			tv, err := sc.TStage(nil, c.s, opt, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.Tail(c.s, opt, tv, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := bitDiff(got, want); d != "" {
				t.Fatalf("workers=%d N=%d R=%d: %s", workers, c.s.N, c.R, d)
			}
			if m := slices.Min(got.T); got.UpperBound != m {
				t.Fatalf("workers=%d N=%d R=%d: upper bound %v, but the minimum of T is %v", workers, c.s.N, c.R, got.UpperBound, m)
			}
		}
	}
	if len(sc.evs) != 4 {
		t.Fatalf("scratch holds %d evaluators after a 4-worker t-stage, want 4", len(sc.evs))
	}
}

// bitDiff describes the first field in which a and b differ bitwise, or
// returns "".
func bitDiff(a, b *Trace) string {
	vecs := func(tr *Trace) [][]float64 {
		return append(append([][]float64{tr.T, tr.S, tr.X, {tr.UpperBound}}, tr.GPlus...), tr.GMinus...)
	}
	va, vb := vecs(a), vecs(b)
	if len(va) != len(vb) {
		return fmt.Sprintf("%d vs %d g± rows", len(a.GPlus), len(b.GPlus))
	}
	for i := range va {
		if len(va[i]) != len(vb[i]) {
			return fmt.Sprintf("vector %d has %d vs %d entries", i, len(va[i]), len(vb[i]))
		}
		for v := range va[i] {
			if math.Float64bits(va[i][v]) != math.Float64bits(vb[i][v]) {
				return fmt.Sprintf("vector %d (T, S, X, bound, g+…, g−…) entry %d: %v vs %v", i, v, va[i][v], vb[i][v])
			}
		}
	}
	return ""
}

// TestScratchFanOutAllocs: a warm scratch's two-worker t-stage runs on the
// scratch's own evaluators, so it allocates goroutine bookkeeping only —
// no memo table, where a fresh evaluator per chunk would build its own.
func TestScratchFanOutAllocs(t *testing.T) {
	in := gen.RandomStructured(gen.StructuredConfig{Objectives: 200, MaxDegK: 3, ExtraCons: 100}, 7)
	s, err := structured.FromMMLP(in)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{R: 4, Workers: 2}
	sc := &Scratch{}
	run := func() {
		if _, err := sc.TStage(nil, s, opt, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs > 8 {
		t.Fatalf("warm two-worker t-stage allocates %.1f objects per run, want ≤ 8", allocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	table := uint64(s.N * (opt.R - 1) * int(unsafe.Sizeof(piece{})))
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= table {
		t.Fatalf("warm two-worker t-stage allocates %d B per run, at least one %d B memo table", per, table)
	}
}

// BenchmarkTStage times the kernel stage alone: a warm one-worker
// Scratch.TStage over every agent of TriNecklace(1000) (3,000 agents after
// §4) at R = 4, the instance of the fleet's necklace workloads, under a
// live cancellable context as a request's. BENCH_budget.json pins it at
// zero allocations, so the kernel stays allocation-free.
func BenchmarkTStage(b *testing.B) {
	s, ok := kernelInput(gen.TriNecklace(1000), 1, 1)
	if !ok {
		b.Fatal("necklace has no kernel input")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{R: 4, Workers: 1}
	sc := &Scratch{}
	if _, err := sc.TStage(ctx, s, opt, nil, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.TStage(ctx, s, opt, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
