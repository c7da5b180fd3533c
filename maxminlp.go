// Package maxminlp is a library for solving max-min linear programs with
// local (constant-round distributed) algorithms. It reproduces, end to end,
// the algorithm of
//
//	Floréen, Kaasinen, Kaski, Suomela:
//	"An Optimal Local Approximation Algorithm for Max-Min Linear Programs",
//	SPAA 2009,
//
// which achieves the optimal local approximation ratio ΔI(1−1/ΔK)+ε for
// max-min LPs whose constraints touch at most ΔI agents and objectives at
// most ΔK agents.
//
// A max-min LP asks to
//
//	maximise  ω(x) = min_k Σ_v c_kv x_v
//	s.t.      Σ_v a_iv x_v ≤ 1 for every constraint i,  x ≥ 0,
//
// with positive coefficients. Build an *Instance (or generate one with the
// Generate* functions), then call:
//
//   - SolveLocal — the paper's local algorithm (§4 transformations + §5
//     algorithm) executed by the fast centralised engine,
//   - SolveLocalDistributed — the identical algorithm executed as an honest
//     synchronous message-passing protocol (one goroutine per network
//     node), returning traffic statistics,
//   - SolveBatch — many independent instances solved concurrently on a
//     fixed worker pool with per-worker scratch reuse,
//   - SolveExact / SolveExactRational — the built-in simplex reference
//     (float64 / exact rational arithmetic),
//   - SolveSafe — the factor-ΔI safe algorithm of prior work [8, 16].
//
// SolveLocal automatically dispatches the trivial cases ΔI = 1 and
// ΔK = 1 to the optimal local algorithms of [17].
//
// The solve pipeline itself lives in internal/engine; this package is the
// stable public surface over it.
package maxminlp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/mmlp"
	"repro/internal/simplex"
)

// Instance is a max-min linear program; see the mmlp package for the row
// and evaluation API (AddConstraint, AddObjective, Utility, CheckFeasible,
// …). The alias keeps one concrete type across the library surface.
type Instance = mmlp.Instance

// Term, Constraint and Objective re-export the instance building blocks.
type (
	Term       = mmlp.Term
	Constraint = mmlp.Constraint
	Objective  = mmlp.Objective
)

// NewInstance returns an empty instance with n agents.
func NewInstance(n int) *Instance { return mmlp.New(n) }

// ReadInstanceFile loads a JSON instance.
func ReadInstanceFile(path string) (*Instance, error) { return mmlp.ReadFile(path) }

// Status classifies a Solution; see the engine package for the String
// method.
type Status = engine.Status

// Solution statuses.
const (
	// StatusApproximate: the solution satisfies the local approximation
	// guarantee ΔI(1−1/ΔK)(1+1/(R−1)) but need not be optimal.
	StatusApproximate = engine.StatusApproximate
	// StatusOptimal: the solution is optimal (exact solver, or a trivial
	// case dispatched to the optimal local algorithms of [17]).
	StatusOptimal = engine.StatusOptimal
	// StatusUnbounded: the utility can be made arbitrarily large.
	StatusUnbounded = engine.StatusUnbounded
	// StatusZeroOptimum: some objective is empty, so the optimum is 0.
	StatusZeroOptimum = engine.StatusZeroOptimum
)

// Solution is the result of any solver in this package: a status, a
// feasible assignment X with its utility, and (when available) a certified
// upper bound on the optimum.
type Solution = engine.Solution

// LocalOptions configures SolveLocal and SolveLocalDistributed.
type LocalOptions struct {
	// R is the shifting parameter (≥ 2, default 3). Larger R tightens the
	// guarantee to ΔI(1−1/ΔK)(1+1/(R−1)) at the cost of a Θ(R) horizon.
	R int
	// Workers bounds the parallelism of the centralised engine
	// (0 = GOMAXPROCS).
	Workers int
	// BinIters caps the per-agent binary search (0 = 100).
	BinIters int
	// DisableSpecialCases skips the optimal ΔI=1 / ΔK=1 dispatch (used by
	// the experiments to exercise the general pipeline on trivial shapes).
	DisableSpecialCases bool
	// CompactProtocol makes SolveLocalDistributed use identifier-based
	// record gossip instead of anonymous view gathering: polynomial message
	// sizes, identical outputs. Ignored by SolveLocal.
	CompactProtocol bool
	// SelfCheck re-verifies every lemma-level invariant of the run
	// (Lemmas 5–7, 11, the recursions and the per-objective guarantee (21))
	// before returning; a failure is reported as an error. Costs one extra
	// pass over the trace.
	SelfCheck bool
}

// engineOptions converts the public options for the given engine kind.
func (o LocalOptions) engineOptions(kind mmlp.Engine) mmlp.SolveOptions {
	return mmlp.SolveOptions{
		Engine:              kind,
		R:                   o.R,
		BinIters:            o.BinIters,
		DisableSpecialCases: o.DisableSpecialCases,
		SelfCheck:           o.SelfCheck,
	}
}

// solve runs one solve on the given engine kind, on a scratch whose
// t-stage runs o.Workers goroutines (0 = GOMAXPROCS).
func (o LocalOptions) solve(in *Instance, kind mmlp.Engine) (*Solution, *DistInfo, error) {
	sc := &engine.Scratch{Workers: cmp.Or(o.Workers, runtime.GOMAXPROCS(0))}
	return engine.SolveScratch(context.Background(), in, o.engineOptions(kind), sc)
}

// distKind picks the message-passing engine selected by the options.
func (o LocalOptions) distKind() mmlp.Engine {
	if o.CompactProtocol {
		return mmlp.EngineDistributedCompact
	}
	return mmlp.EngineDistributed
}

// ErrInvalid wraps instance validation failures.
var ErrInvalid = mmlp.ErrInvalid

// DistInfo reports the traffic of a distributed run: the synchronous round
// count 12(R−2)+8 and the message/byte volume of the protocol.
type DistInfo = engine.DistInfo

// SolveLocal runs the paper's local approximation algorithm: degenerate
// structures are stripped (§4 preamble), the §4.2–§4.6 transformations
// produce the structured form, the §5 algorithm computes the solution, and
// the back-mappings lift it to the input instance. The result is feasible
// and within factor max(2,ΔI)·(1−1/max(2,ΔK))·(1+1/(R−1)) of the optimum.
func SolveLocal(in *Instance, opts LocalOptions) (*Solution, error) {
	sol, _, err := opts.solve(in, mmlp.EngineCentral)
	return sol, err
}

// SolveLocalDistributed is SolveLocal executed as the synchronous
// message-passing protocol of the dist package. The solution is identical
// to SolveLocal's; the second result reports the communication volume.
func SolveLocalDistributed(in *Instance, opts LocalOptions) (*Solution, *DistInfo, error) {
	return opts.solve(in, opts.distKind())
}

// BatchJob is one unit of work for SolveBatch.
type BatchJob struct {
	// In is the instance to solve.
	In *Instance
	// Opts configures the solve exactly as for SolveLocal /
	// SolveLocalDistributed (CompactProtocol selects the record protocol
	// when Distributed is set). Workers is ignored: a centralised job runs
	// single-threaded on its pool worker, and a distributed job spawns the
	// simulator's goroutine-per-node regardless.
	Opts LocalOptions
	// Distributed runs this job on the message-passing engine instead of
	// the centralised one. Engines may be mixed freely within a batch.
	Distributed bool
}

// BatchResult is the outcome of one BatchJob.
type BatchResult struct {
	// Sol is the solution (nil when Err is set).
	Sol *Solution
	// Dist carries the traffic statistics of a distributed job (nil for
	// centralised jobs).
	Dist *DistInfo
	// Err reports a failed or cancelled job; jobs never fail each other.
	Err error
	// Cached reports that the result came from the result cache enabled by
	// BatchOptions.CacheBytes; cached results are bit-identical to fresh
	// ones.
	Cached bool
	// Latency is the wall-clock solve time of this job (zero when the job
	// was cancelled before it started).
	Latency time.Duration
}

// BatchOptions configures SolveBatch.
type BatchOptions struct {
	// Workers is the fixed pool size (0 = GOMAXPROCS). Each worker owns
	// reusable scratch, so steady-state solving stays allocation-light.
	Workers int
	// JobTimeout, when positive, bounds each job individually; a job whose
	// deadline expires reports context.DeadlineExceeded in its result.
	JobTimeout time.Duration
	// CacheBytes, when positive, fronts the batch with a result cache of
	// this byte budget keyed by the canonical (instance, options) hash:
	// duplicate jobs in the batch are solved once and answered from the
	// cache thereafter, bit-identically to a fresh solve. The cache lives
	// for this SolveBatch call; BatchStats.Cache reports its activity.
	CacheBytes int64
}

// BatchStats aggregates throughput and latency over a batch or a serving
// pool: the same block a serving process reports on GET /statsz.
type BatchStats = mmlp.StatsRaw

// CacheStats reports the result cache's activity (hits, misses, coalesced
// waiters, evictions, current entries/bytes); BatchStats.Cache carries one
// when BatchOptions.CacheBytes enables caching.
type CacheStats = mmlp.CacheStatsRaw

// SolveBatch solves many independent instances concurrently on a fixed
// worker pool. Results are positional: result i belongs to jobs[i], and
// each is bit-identical to the corresponding sequential SolveLocal /
// SolveLocalDistributed call. Cancelling ctx stops unstarted jobs (their
// results carry the context error) and returns the context error; jobs
// already running stop at their next pipeline-stage boundary and report
// the context error in their result.
func SolveBatch(ctx context.Context, jobs []BatchJob, o BatchOptions) ([]BatchResult, *BatchStats, error) {
	bjobs := make([]batch.Job, len(jobs))
	for i, j := range jobs {
		kind := mmlp.EngineCentral
		if j.Distributed {
			kind = j.Opts.distKind()
		}
		bjobs[i] = batch.Job{In: j.In, Opts: j.Opts.engineOptions(kind)}
	}
	res, stats, err := batch.Solve(ctx, bjobs, batch.Options{
		Workers: o.Workers, JobTimeout: o.JobTimeout,
		CacheBytes: o.CacheBytes,
	})
	out := make([]BatchResult, len(res))
	for i, r := range res {
		out[i] = BatchResult{Sol: r.Sol, Dist: r.Dist, Err: r.Err, Cached: r.Cached, Latency: r.Latency}
	}
	return out, stats, err
}

// SolveExact computes an optimal solution with the built-in float64
// simplex.
func SolveExact(in *Instance) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	r := simplex.SolveMaxMin(in)
	switch r.Status {
	case simplex.Optimal:
		x := in.Strictify(r.X)
		return &Solution{Status: StatusOptimal, X: x, Utility: in.Utility(x), UpperBound: r.Value}, nil
	case simplex.Unbounded:
		return &Solution{Status: StatusUnbounded}, nil
	default:
		return nil, fmt.Errorf("maxminlp: simplex returned %v", r.Status)
	}
}

// SolveExactRational computes the optimum in exact rational arithmetic and
// returns it converted to float64 (the X vector is exact at conversion).
// Exponentially slower than SolveExact; intended for small instances and
// verification.
func SolveExactRational(in *Instance) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	r := simplex.SolveMaxMinRat(in)
	switch r.Status {
	case simplex.Optimal:
		x := make([]float64, in.NumAgents)
		for v := range x {
			x[v] = simplex.RatFloat(r.X[v])
		}
		x = in.Strictify(x)
		return &Solution{Status: StatusOptimal, X: x, Utility: in.Utility(x), UpperBound: simplex.RatFloat(r.Value)}, nil
	case simplex.Unbounded:
		return &Solution{Status: StatusUnbounded}, nil
	default:
		return nil, fmt.Errorf("maxminlp: rational simplex returned %v", r.Status)
	}
}

// SolveSafe runs the factor-ΔI safe algorithm of [8, 16] (2-round local
// horizon), the strongest general local algorithm known before the paper.
func SolveSafe(in *Instance) (*Solution, error) {
	if err := in.ValidateStrict(); err != nil {
		return nil, err
	}
	x := in.Strictify(baseline.SolveSafe(in))
	return &Solution{Status: StatusApproximate, X: x, Utility: in.Utility(x)}, nil
}

// Certificate is a self-contained dual proof that the optimum of an
// instance is at most Bound; Verify re-checks it from scratch without
// trusting the solver (see simplex.MaxMinCertificate).
type Certificate = simplex.MaxMinCertificate

// SolveExactCertified computes the optimum together with an independently
// verifiable dual certificate of optimality. The certificate is read off
// the optimal tableau of the same two-phase simplex SolveExact runs, and
// is validated before it is returned. An instance whose optimum is
// unbounded (SolveExact's StatusUnbounded) has nothing to certify: its
// error wraps ErrNotOptimal.
func SolveExactCertified(in *Instance) (*Solution, *Certificate, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	res, cert, err := simplex.CertifyMaxMin(in)
	if res.Status == simplex.Unbounded {
		return nil, nil, fmt.Errorf("%w: %v", ErrNotOptimal, err)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := cert.Verify(in, 1e-6); err != nil {
		return nil, nil, fmt.Errorf("maxminlp: solver produced an invalid certificate: %w", err)
	}
	x := in.Strictify(res.X)
	return &Solution{Status: StatusOptimal, X: x, Utility: in.Utility(x), UpperBound: cert.Bound}, cert, nil
}

// RatioBound returns the approximation guarantee of SolveLocal for an
// instance with the given degrees and shifting parameter:
// max(2,ΔI) · (1 − 1/max(2,ΔK)) · (1 + 1/(R−1)).
func RatioBound(degI, degK, R int) float64 {
	if degI < 2 {
		degI = 2
	}
	if degK < 2 {
		degK = 2
	}
	return float64(degI) * (1 - 1/float64(degK)) * (1 + 1/float64(R-1))
}

// LocalityThreshold returns ΔI(1−1/ΔK), the exact approximability
// threshold of Theorem 1: achievable within any ε, unachievable exactly.
func LocalityThreshold(degI, degK int) float64 {
	return float64(degI) * (1 - 1/float64(degK))
}

// ErrNotOptimal is wrapped in the error SolveExactCertified returns for an
// instance with no finite optimum: one with no objectives, or one in which
// every objective has an agent that no constraint bounds.
var ErrNotOptimal = errors.New("maxminlp: instance has no finite optimum")
