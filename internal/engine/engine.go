// Package engine hosts the end-to-end solve pipeline behind the public
// maxminlp surface: validation, the §4 preamble and transformations, the
// trivial-case dispatch, the structured solve on a selectable engine
// (centralised or message-passing), and the back-mappings to the input
// instance. Factoring the pipeline out of the root package lets the batch
// and serving layers drive it directly — with per-worker scratch reuse and
// cooperative cancellation — without an import cycle through the public
// API.
//
// A solve is an instance and its mmlp.SolveOptions (Options, under the
// type's older name). How many goroutines run its t-stage belongs to the
// Scratch it runs on (Scratch.Workers): SolveScratch runs on the caller's,
// Solve on a fresh one, with one goroutine.
//
// Error strings keep the "maxminlp:" prefix because every error escapes
// through the public surface.
package engine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/baseline"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/dist"
	"repro/internal/mmlp"
	"repro/internal/obs"
	"repro/internal/structured"
	"repro/internal/transform"
)

// Options is mmlp.SolveOptions under its older name, which callers
// outside the serving path still spell in literals.
type Options = mmlp.SolveOptions

// Status classifies a Solution.
type Status int

// Solution statuses.
const (
	// StatusApproximate: the solution satisfies the local approximation
	// guarantee ΔI(1−1/ΔK)(1+1/(R−1)) but need not be optimal.
	StatusApproximate Status = iota
	// StatusOptimal: the solution is optimal (exact solver, or a trivial
	// case dispatched to the optimal local algorithms of [17]).
	StatusOptimal
	// StatusUnbounded: the utility can be made arbitrarily large.
	StatusUnbounded
	// StatusZeroOptimum: some objective is empty, so the optimum is 0.
	StatusZeroOptimum
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusApproximate:
		return "approximate"
	case StatusOptimal:
		return "optimal"
	case StatusUnbounded:
		return "unbounded"
	case StatusZeroOptimum:
		return "zero-optimum"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of any solver in the library.
type Solution struct {
	// Status classifies the outcome; X and Utility are meaningful for
	// StatusApproximate, StatusOptimal and StatusZeroOptimum.
	Status Status
	// X is a feasible assignment (length = NumAgents).
	X []float64
	// Utility is ω(X) on the input instance.
	Utility float64
	// UpperBound, when positive, certifies optimum ≤ UpperBound. The local
	// algorithm derives it from the per-agent tree optima t_v (Lemma 2);
	// exact solvers set it to the optimum.
	UpperBound float64
}

// ErrOverflow reports an instance that passes validation but whose answer
// does not fit in float64: coefficients far apart in scale (5e-324
// against 1, or 1e-300 against 1e300) push the optimum past
// math.MaxFloat64 and leave x, the utility or the upper bound NaN or
// infinite. It wraps mmlp.ErrInvalid, so the serving layer answers it 400
// invalid_argument on every route.
var ErrOverflow = fmt.Errorf("%w: its answer overflows float64", mmlp.ErrInvalid)

// finite checks that every number of the answer is finite, naming the
// first that is not. The pipeline runs it once per answer, before the
// cache can store it.
func (s *Solution) finite() error {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	var name string
	var v float64
	switch i := slices.IndexFunc(s.X, bad); {
	case bad(s.Utility):
		name, v = "utility", s.Utility
	case bad(s.UpperBound):
		name, v = "upper bound", s.UpperBound
	case i >= 0:
		name, v = fmt.Sprintf("x[%d]", i), s.X[i]
	default:
		return nil
	}
	return fmt.Errorf("maxminlp: %w (%s %v); scale the coefficients toward 1", ErrOverflow, name, v)
}

// DistInfo reports the traffic of a distributed run.
type DistInfo struct {
	// Rounds is the number of synchronous rounds (12(R−2)+8; the final
	// round carries no messages).
	Rounds int
	// Messages and Bytes total the traffic; MaxMessageBytes is the largest
	// single message (dominated by the view-gathering phase);
	// CompressedBytes re-counts view messages at their DAG-compressed size.
	Messages, Bytes, MaxMessageBytes, CompressedBytes int
}

// Scratch is the reusable per-worker working memory of the whole pipeline:
// the canonicalization copy, the §4 transform arena (intermediate
// instances, index tables and back-map arrays), the compact-form
// conversion buffers, a delta's plan BFS and the centralised kernel's
// evaluator/float buffers.
// A warm worker therefore runs the full centralised solve with a small
// constant number of heap allocations per job (see the alloc budget
// tests). The zero value is ready; see NewScratch. Not safe for concurrent
// use.
type Scratch struct {
	core  core.Scratch
	canon mmlp.CanonScratch
	dec   canon.DecodeScratch
	pipe  transform.Scratch
	str   structured.Scratch
	plan  delta.Scratch
	back  [2][]float64 // Pipeline.BackInto's buffers

	// Workers bounds the goroutines of the centralised t-stage, each on
	// its own evaluator (0 means one: a pool worker's t-stage stays on its
	// goroutine). Every count gives the same bits.
	Workers int

	// Trace is the per-request stage-timing record, reset by every entry
	// point and filled as the pipeline runs. A fixed array inside the
	// scratch, it adds no allocations to the solve path; callers that want
	// it must copy it out before the worker reuses the scratch.
	Trace obs.Trace
}

// NewScratch returns an empty scratch for one worker.
func NewScratch() *Scratch { return &Scratch{} }

// trace returns sc's trace record, nil (which records nothing) for a nil
// scratch.
func (sc *Scratch) trace() *obs.Trace {
	if sc == nil {
		return nil
	}
	return &sc.Trace
}

// Solve runs the full pipeline on one instance. The DistInfo result is nil
// for the centralised engine and populated for the message-passing engines
// (zero-valued when a trivial case was dispatched before any protocol ran).
//
// ctx is checked between pipeline stages and, inside the kernel, between
// the per-agent t_u computations of the centralised engine and at every
// round barrier of the message-passing engines: a solve whose context
// expires returns ctx's error without starting the next stage (or the
// next agent, or round).
func Solve(ctx context.Context, in *mmlp.Instance, o mmlp.SolveOptions) (*Solution, *DistInfo, error) {
	return SolveScratch(ctx, in, o, nil)
}

// SolveScratch is Solve reusing sc's buffers for the transform stages and
// the centralised kernel, whose t-stage runs sc.Workers goroutines (a nil
// sc is a fresh scratch, with one; the message-passing engines allocate
// their node state regardless). The returned solution owns its memory —
// it never aliases sc.
func SolveScratch(ctx context.Context, in *mmlp.Instance, o mmlp.SolveOptions, sc *Scratch) (*Solution, *DistInfo, error) {
	rep, _, err := solve(ctx, Request{In: in, Opts: o}, sc, nil, nil)
	return rep.Sol, rep.Dist, err
}

// solveCanonical runs the pipeline stages on a validated instance already
// in canonical form, under normalized options: the §4 preamble and
// transformations, the trivial-case dispatch, the kernel and the
// back-map, all in sc's arenas.
//
// rec, when non-nil, captures the kernel t-vector for the delta record a
// stored result carries (a private copy; the trivial and preprocess
// shortcuts leave rec.T nil — they have no kernel to splice from).
//
// base, when non-nil, is the stored solve a delta edits: whenever
// the base ran the kernel and the structured forms align, the centralised
// t-stage runs over the dirty agents only, seeded with the base's
// t-vector, the tail re-derives only the edit's output ball from the
// base's trace, and out receives the accounting. Every other shape runs
// the full kernel and tail, which is always bit-identical (just not
// incremental).
func solveCanonical(ctx context.Context, in *mmlp.Instance, o mmlp.SolveOptions, sc *Scratch, rec *delta.Record, base *deltaBase, out *DeltaOutcome) (*Solution, *DistInfo, error) {
	var info *DistInfo
	if o.Engine != mmlp.EngineCentral {
		info = &DistInfo{}
	}
	if o.R < 2 {
		return nil, nil, fmt.Errorf("maxminlp: R must be ≥ 2, got %d", o.R)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	copts := core.Options{R: o.R, Workers: cmp.Or(sc.Workers, 1), BinIters: o.BinIters}
	var form *delta.BaseForm
	var baseRec *delta.Record
	if base != nil {
		tf := time.Now()
		baseRec, form = base.res.rec, base.form(copts)
		sc.Trace.Add(obs.StageDeltaPlan, time.Since(tf))
	}

	// Stage windows for the request trace: transform covers preprocessing
	// through the structured-form conversion, kernel the engine proper,
	// back-map the lift/strictify/utility tail. Early returns close the
	// transform window so partial pipelines still attribute their cost.
	tt := time.Now()
	var pp *transform.Preprocessed
	var pipe *transform.Pipeline
	var s *structured.Instance
	if form != nil && form.Pipe != nil {
		// A base in structured form passes §4 unchanged, and so does an
		// edit of its constraint coefficients alone: such an instance
		// takes the base's preprocessing and back-maps, and its compact
		// form is the base's with the edited rows patched in — no O(size)
		// validation, preprocessing or conversion.
		if s, _ = form.S.Reweighted(baseRec.In, in, &sc.str); s != nil {
			pp, pipe = form.Pre, form.Pipe
		}
	}
	if s == nil {
		pp = transform.PreprocessScratch(in, &sc.pipe)
		switch pp.Outcome {
		case transform.ZeroOptimum:
			sc.Trace.Add(obs.StageTransform, time.Since(tt))
			return &Solution{Status: StatusZeroOptimum, X: pp.Lift(nil), Utility: 0, UpperBound: 0}, info, nil
		case transform.UnboundedOptimum:
			sc.Trace.Add(obs.StageTransform, time.Since(tt))
			return &Solution{Status: StatusUnbounded}, info, nil
		}
		red := pp.Out

		// Trivial cases: the optimal local algorithms of [17]. The
		// dispatched baseline solve is the kernel of these requests.
		if !o.DisableSpecialCases {
			if red.DegreeI() <= 1 {
				sc.Trace.Add(obs.StageTransform, time.Since(tt))
				tk := time.Now()
				x := in.Strictify(pp.Lift(baseline.SolveSingletonConstraints(red)))
				sc.Trace.Add(obs.StageKernel, time.Since(tk))
				return &Solution{Status: StatusOptimal, X: x, Utility: in.Utility(x), UpperBound: in.Utility(x)}, info, nil
			}
			if red.DegreeK() <= 1 {
				sc.Trace.Add(obs.StageTransform, time.Since(tt))
				tk := time.Now()
				x := in.Strictify(pp.Lift(baseline.SolveSingletonObjectives(red)))
				sc.Trace.Add(obs.StageKernel, time.Since(tk))
				return &Solution{Status: StatusOptimal, X: x, Utility: in.Utility(x), UpperBound: in.Utility(x)}, info, nil
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}

		var err error
		if pipe, err = transform.StructureScratch(red, &sc.pipe); err != nil {
			return nil, nil, err
		}
		if s, err = structured.FromMMLPScratch(pipe.Final(), &sc.str); err != nil {
			return nil, nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sc.Trace.Add(obs.StageTransform, time.Since(tt))

	// A splice re-prices only the dirty agents, keeping every other t_u of
	// the base record, and re-derives only the output ball, keeping the
	// rest of the base's trace; a fresh solve evaluates every agent.
	var t, xs []float64
	var ub float64
	dirty, ball, spliced := planSplice(form, s, copts, sc)
	kernelStage, tailStage, backStage := obs.StageKernel, obs.StageKernel, obs.StageBackMap
	var baseT []float64
	var baseTr *core.Trace
	if spliced {
		kernelStage, tailStage, backStage = obs.StageDeltaKernel, obs.StageDeltaSplice, obs.StageDeltaSplice
		baseT, baseTr = baseRec.T, form.Trace
		out.DirtyAgents, out.TotalAgents, out.Spliced = len(dirty), s.N, len(dirty) < s.N
	}
	tk := time.Now()
	switch {
	case spliced || o.Engine == mmlp.EngineCentral:
		tv, err := sc.core.TStage(ctx, s, copts, dirty, baseT)
		if err != nil {
			return nil, nil, err
		}
		sc.Trace.Add(kernelStage, time.Since(tk))
		ts := time.Now()
		tr, err := sc.core.Tail(s, copts, tv, ball, baseTr)
		if err != nil {
			return nil, nil, err
		}
		if o.SelfCheck {
			if err := core.VerifyTrace(s, tr, 1e-9); err != nil {
				return nil, nil, fmt.Errorf("maxminlp: self-check failed: %w", err)
			}
		}
		sc.Trace.Add(tailStage, time.Since(ts))
		t, xs, ub = tr.T, tr.X, tr.UpperBound
	case o.Engine == mmlp.EngineDistributed || o.Engine == mmlp.EngineDistributedCompact:
		solver := dist.SolveDistributed
		if o.Engine == mmlp.EngineDistributedCompact {
			solver = dist.SolveDistributedCompact
		}
		res, err := solver(ctx, s, copts)
		if err != nil {
			return nil, nil, err
		}
		info.Rounds = res.Rounds
		info.Messages = res.Stats.Messages
		info.Bytes = res.Stats.Bytes
		info.MaxMessageBytes = res.Stats.MaxMessageBytes
		info.CompressedBytes = res.Stats.CompressedBytes
		ub = math.Inf(1)
		for _, tu := range res.T {
			if tu < ub {
				ub = tu
			}
		}
		// The dist protocols' T is bit-identical to the centralised
		// kernel's (internal/dist), so a record splices for any engine.
		t, xs = res.T, res.X
		sc.Trace.Add(obs.StageKernel, time.Since(tk))
	default:
		return nil, nil, fmt.Errorf("maxminlp: unknown engine %v", o.Engine)
	}
	if !spliced && out != nil && rec != nil {
		out.DirtyAgents, out.TotalAgents = len(t), len(t)
	}
	if rec != nil {
		// The scratch kernel's T aliases sc's buffers; the record outlives
		// this request, so it takes a copy.
		rec.T = append([]float64(nil), t...)
	}

	tb := time.Now()
	x := in.Strictify(pp.Lift(pipe.BackInto(xs, &sc.back)))
	sol := &Solution{
		Status:     StatusApproximate,
		X:          x,
		Utility:    in.Utility(x),
		UpperBound: ub,
	}
	sc.Trace.Add(backStage, time.Since(tb))
	return sol, info, nil
}
