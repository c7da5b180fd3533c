// Benchmarks: one per experiment of internal/expt, plus the serving layers
// (batch pool, result cache, delta) and the exact reference. Each
// experiment benchmark times the computational kernel of its experiment;
// the full sweep tables themselves are printed by cmd/mmlpbench.
package maxminlp_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	maxminlp "repro"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/simplex"
	"repro/internal/structured"
	"repro/internal/transform"
)

// BenchmarkE1LocalGeneral times the full pipeline (preprocess → §4
// transformations → §5 algorithm → back-mapping) on a random general
// instance, the E1 workload.
func BenchmarkE1LocalGeneral(b *testing.B) {
	in := gen.Random(gen.RandomConfig{Agents: 24, MaxDegI: 3, MaxDegK: 3, ExtraCons: 6, ExtraObjs: 3}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := maxminlp.SolveLocal(in, maxminlp.LocalOptions{R: 3, DisableSpecialCases: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2LocalStructured times the §5 algorithm alone on a structured
// instance (no transformations), the E2 workload.
func BenchmarkE2LocalStructured(b *testing.B) {
	in := gen.RandomStructured(gen.StructuredConfig{Objectives: 50, MaxDegK: 3, ExtraCons: 25}, 1)
	s, err := structured.FromMMLP(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(s, core.Options{R: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3Adversarial times the algorithm on the symmetric necklace
// family of the lower-bound experiment.
func BenchmarkE3Adversarial(b *testing.B) {
	in := gen.TriNecklace(32)
	s, err := structured.FromMMLP(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(s, core.Options{R: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4SafeBaseline times the prior-work safe algorithm on the E1
// workload for comparison.
func BenchmarkE4SafeBaseline(b *testing.B) {
	in := gen.Random(gen.RandomConfig{Agents: 24, MaxDegI: 3, MaxDegK: 3, ExtraCons: 6, ExtraObjs: 3}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := maxminlp.SolveSafe(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5Distributed times a full distributed protocol run (goroutine
// per node, all phases) per R; rounds stay constant in the network size.
func BenchmarkE5Distributed(b *testing.B) {
	for _, R := range []int{2, 3} {
		b.Run(fmt.Sprintf("R=%d", R), func(b *testing.B) {
			in := gen.TriNecklace(8)
			s, err := structured.FromMMLP(in)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dist.SolveDistributed(context.Background(), s, core.Options{R: R}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5Protocols compares the anonymous-view protocol against the
// compact record protocol at R=4, where view explosion bites.
func BenchmarkE5Protocols(b *testing.B) {
	in := gen.TriNecklace(12)
	s, err := structured.FromMMLP(in)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("views", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dist.SolveDistributed(context.Background(), s, core.Options{R: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("records", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dist.SolveDistributedCompact(context.Background(), s, core.Options{R: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6TransformPipeline times the §4 pipeline alone.
func BenchmarkE6TransformPipeline(b *testing.B) {
	in := gen.Random(gen.RandomConfig{Agents: 50, MaxDegI: 4, MaxDegK: 3, ExtraCons: 12, ExtraObjs: 6}, 1)
	pp := transform.Preprocess(in)
	if pp.Outcome != transform.OK {
		b.Fatal("unexpected preprocess outcome")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := transform.Structure(pp.Out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransformPipeline isolates the §4 stage on a warm per-worker
// arena — the steady-state transform cost a batch worker pays per job
// (compare BenchmarkE6TransformPipeline, which rebuilds a fresh arena per
// call). The arena is warmed before the timer so allocs/op reflects steady
// state even at -benchtime 1x, which is what the CI allocation budget
// (BENCH_budget.json) pins.
func BenchmarkTransformPipeline(b *testing.B) {
	in := gen.Random(gen.RandomConfig{Agents: 50, MaxDegI: 4, MaxDegK: 3, ExtraCons: 12, ExtraObjs: 6}, 1)
	sc := transform.NewScratch()
	pp := transform.PreprocessScratch(in, sc)
	if pp.Outcome != transform.OK {
		b.Fatal("unexpected preprocess outcome")
	}
	if _, err := transform.StructureScratch(pp.Out, sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pp := transform.PreprocessScratch(in, sc)
		if _, err := transform.StructureScratch(pp.Out, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8Scaling times the centralised engine across instance sizes;
// ns/op divided by agents is the per-node cost, which stays flat.
func BenchmarkE8Scaling(b *testing.B) {
	for _, objs := range []int{500, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("objectives=%d", objs), func(b *testing.B) {
			in := gen.RandomStructured(gen.StructuredConfig{Objectives: objs, MaxDegK: 3, ExtraCons: objs / 2}, 1)
			s, err := structured.FromMMLP(in)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(s, core.Options{R: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9RSweep times the structured solve across R values; the local
// horizon (and hence the per-node neighbourhood) grows with R.
func BenchmarkE9RSweep(b *testing.B) {
	in := gen.RandomStructured(gen.StructuredConfig{Objectives: 100, MaxDegK: 3, ExtraCons: 50}, 1)
	s, err := structured.FromMMLP(in)
	if err != nil {
		b.Fatal(err)
	}
	for _, R := range []int{2, 3, 4, 6} {
		b.Run(fmt.Sprintf("R=%d", R), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(s, core.Options{R: R}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10Ablations times the ablated variants against the full
// algorithm; the work is near-identical, confirming the design elements
// cost nothing at runtime (they buy correctness, not speed).
func BenchmarkE10Ablations(b *testing.B) {
	in := gen.RandomStructured(gen.StructuredConfig{Objectives: 50, MaxDegK: 3, ExtraCons: 25}, 1)
	s, err := structured.FromMMLP(in)
	if err != nil {
		b.Fatal(err)
	}
	for name, ab := range map[string]core.Ablation{
		"full":        {},
		"noSmoothing": {NoSmoothing: true},
		"allDown":     {Role: core.RoleDown},
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveAblated(s, core.Options{R: 3}, ab); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE11IncrementalUpdate times a one-coefficient dynamic update —
// the spliced delta's sequence on reused scratches: delta.Scratch.Plan,
// the single-worker dirty t-stage and the ball-local tail — against the
// full re-solve it replaces.
func BenchmarkE11IncrementalUpdate(b *testing.B) {
	in := gen.TriNecklace(200)
	s1, err := structured.FromMMLP(in)
	if err != nil {
		b.Fatal(err)
	}
	mod := in.Clone()
	mod.Cons[0].Terms[0].Coef = 2
	s2, err := structured.FromMMLP(mod)
	if err != nil {
		b.Fatal(err)
	}
	old, err := core.Solve(s1, core.Options{R: 3})
	if err != nil {
		b.Fatal(err)
	}
	base := old.Own()
	b.Run("incremental", func(b *testing.B) {
		var ps delta.Scratch
		var sc core.Scratch
		r := base.SmallR
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dirty, ball, err := ps.Plan(s1, s2, core.TRadius(r), core.OutputRadius(r))
			if err != nil {
				b.Fatal(err)
			}
			t, err := sc.TStage(nil, s2, core.Options{R: 3, Workers: 1}, dirty, base.T)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sc.Tail(s2, core.Options{R: 3}, t, ball, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fullResolve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(s2, core.Options{R: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatchThroughput times SolveBatch across pool sizes on a batch
// of E1-workload instances; jobs/s is the serving-layer capacity of one
// process. Per-worker scratch reuse keeps B/op near the per-job transform
// cost rather than the kernel cost.
func BenchmarkBatchThroughput(b *testing.B) {
	const nJobs = 64
	jobs := make([]maxminlp.BatchJob, nJobs)
	for i := range jobs {
		in := gen.Random(gen.RandomConfig{Agents: 24, MaxDegI: 3, MaxDegK: 3, ExtraCons: 6, ExtraObjs: 3}, int64(i+1))
		jobs[i] = maxminlp.BatchJob{In: in, Opts: maxminlp.LocalOptions{R: 3, DisableSpecialCases: true}}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, _, err := maxminlp.SolveBatch(context.Background(), jobs, maxminlp.BatchOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.ReportMetric(float64(nJobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkCachedThroughput measures the result cache on the E1 workload:
// "cold" is the full pipeline a miss pays, "hit" is the cached path that
// replaces it on repeat solves (acceptance: allocation-light and ≥10×
// faster than cold), "pool-hot" is a worker pool serving one hot key —
// the slowly-changing-topology serving scenario the cache exists for — and
// "pool-mix" is one shard's cache traffic under the fleet's e1-hot
// workload: 64 warm canon keys from parallel submitters through a 2-worker
// pool. Run pool-mix at -cpu 2 with -mutexprofile to see the wait on the
// cache's lock.
func BenchmarkCachedThroughput(b *testing.B) {
	cfg := gen.RandomConfig{Agents: 24, MaxDegI: 3, MaxDegK: 3, ExtraCons: 6, ExtraObjs: 3}
	in := gen.Random(cfg, 1)
	opts := engine.Options{R: 3, DisableSpecialCases: true}
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		sc := engine.NewScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.SolveScratch(ctx, in, opts, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		ca := engine.NewCache(engine.CacheOptions{MaxBytes: 1 << 20})
		if _, _, _, err := engine.SolveCached(ctx, in, opts, nil, ca); err != nil { // warm the key
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _, cached, err := engine.SolveCached(ctx, in, opts, nil, ca)
			if err != nil {
				b.Fatal(err)
			}
			if !cached {
				b.Fatal("expected a cache hit")
			}
		}
	})
	b.Run("pool-hot", func(b *testing.B) {
		p := batch.NewPool(batch.Options{Workers: 4, CacheBytes: 1 << 20})
		defer p.Close()
		job := batch.Job{In: in, Opts: opts}
		if r := p.Do(ctx, job); r.Err != nil { // warm the key
			b.Fatal(r.Err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r := p.Do(ctx, job); r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	})
	b.Run("pool-mix", func(b *testing.B) {
		p := batch.NewPool(batch.Options{Workers: 2, CacheBytes: 64 << 20})
		defer p.Close()
		jobs := make([]batch.Job, 64)
		for i := range jobs {
			jobs[i] = batch.JobFromCanon(engine.EncodeCanon(gen.Random(cfg, int64(i+1)), opts))
			if r := p.Do(ctx, jobs[i]); r.Err != nil { // warm the key
				b.Fatal(r.Err)
			}
		}
		var start atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for i := int(start.Add(17)); pb.Next(); i++ {
				r := p.Do(ctx, jobs[i%len(jobs)])
				if r.Err != nil || !r.Cached {
					b.Errorf("want a cache hit, got err %v", r.Err)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	})
}

// BenchmarkSimplexExact times the reference LP solver used to measure true
// ratios in E1–E4.
// BenchmarkDeltaSolve measures the incremental re-solve path against its
// alternative: a small edit priced through SolveDelta (plan the dirty
// ball, recompute only it, splice the rest) versus a cold solve of the
// edited instance. Every iteration uses a distinct reweight so the edited
// key never hits the cache — the benchmark times pricing, not replay. The
// cold/delta ratio is the headline number; BENCH_budget.json floors it at
// 5× (the acceptance criterion for the delta subsystem).
func BenchmarkDeltaSolve(b *testing.B) {
	// A necklace has diameter Θ(n), so one edited row's radius-(4r+3) ball
	// stays a tiny fraction of the 3000 agents; on an expander the ball
	// would swallow the graph and there would be nothing to splice.
	in := gen.TriNecklace(1000)
	opts := engine.Options{R: 4, DisableSpecialCases: true}
	ctx := context.Background()
	ca := engine.NewCache(engine.CacheOptions{MaxBytes: 1 << 30})
	sc := engine.NewScratch()
	if _, _, _, err := engine.SolveCached(ctx, in, opts, sc, ca); err != nil {
		b.Fatal(err)
	}
	base := engine.SolveKey(in, opts)
	cin := in.Canonical()
	row := cin.Cons[0].Terms
	edits := func(i int) []mmlp.RowEdit {
		nt := make([]mmlp.Term, len(row))
		for j, tm := range row {
			nt[j] = mmlp.Term{Agent: tm.Agent, Coef: tm.Coef * (1 + float64(i+1)/(1<<20))}
		}
		return []mmlp.RowEdit{{Op: mmlp.EditReweight, Kind: mmlp.EditConstraint, Match: row, Terms: nt}}
	}

	// Cold reference, timed by hand outside the benchmark clock: the full
	// pipeline on the same edited instances.
	const coldRuns = 3
	coldStart := time.Now()
	for j := 0; j < coldRuns; j++ {
		edited, err := delta.Apply(cin, edits(b.N+j))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := engine.SolveScratch(ctx, edited, opts, sc); err != nil {
			b.Fatal(err)
		}
	}
	coldNS := float64(time.Since(coldStart).Nanoseconds()) / coldRuns

	// One untimed delta so the record's memoised base transform is built
	// before the clock starts: steady-state pricing is what the cold/delta
	// floor in BENCH_budget.json pins, not the first-touch build.
	if _, _, _, err := engine.SolveDelta(ctx, base, edits(1<<19), sc, ca); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out, cached, err := engine.SolveDelta(ctx, base, edits(i), sc, ca)
		if err != nil {
			b.Fatal(err)
		}
		if cached {
			b.Fatal("delta hit the cache; the benchmark must price every edit")
		}
		if !out.Spliced {
			b.Fatal("delta fell back to a cold solve; nothing was spliced")
		}
	}
	b.StopTimer()
	deltaNS := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(coldNS/deltaNS, "cold/delta")
}

func BenchmarkSimplexExact(b *testing.B) {
	in := gen.Random(gen.RandomConfig{Agents: 40, MaxDegI: 3, MaxDegK: 3, ExtraCons: 10, ExtraObjs: 5}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := simplex.SolveMaxMin(in)
		if r.Status != simplex.Optimal {
			b.Fatal(r.Status)
		}
	}
}
