package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/reuse"
	"repro/internal/structured"
)

// Scratch is the reusable working memory of one solver worker: the
// evaluator memo tables of stage 1 and the float buffers of stages 2–3.
// Buffers grow on demand and are retained between solves, so a worker that
// solves a steady stream of similarly-sized instances stops allocating in
// the kernel after warm-up. A Scratch is not safe for concurrent use; the
// zero value is ready.
type Scratch struct {
	ev         evaluator
	t          []float64
	sA, sB, sC []float64
	gp, gm     [][]float64
	gpB, gmB   []float64
	x          []float64
	gps, gms   []float64

	// The ball-local tail's reach BFS: visit stamps (an entry equal to
	// epoch was reached by the current BFS; the epoch only grows, so stale
	// entries never need clearing), the agents reached in BFS order and
	// the per-step prefix ends.
	at     []uint64
	epoch  uint64
	region []int32
	ends   []int
}

// grow is the shared arena-resize primitive.
func grow(buf *[]float64, n int) []float64 { return reuse.Grow(buf, n) }

// growMatrix shapes rows/backing into a matrix with rows of length n each,
// reusing the backing array across calls.
func growMatrix(rows *[][]float64, backing *[]float64, r, n int) [][]float64 {
	b := grow(backing, r*n)
	if cap(*rows) < r {
		*rows = make([][]float64, r)
	}
	*rows = (*rows)[:r]
	for d := 0; d < r; d++ {
		(*rows)[d] = b[d*n : (d+1)*n : (d+1)*n]
	}
	return *rows
}

// SolveScratch is Solve executed by a single worker that reuses sc's
// buffers. The arithmetic — and hence every output bit — is identical to
// Solve's; only the allocation behaviour differs. The returned Trace
// aliases sc and is valid only until the next SolveScratch call on the
// same scratch; callers that keep a field beyond that must copy it.
func SolveScratch(s *structured.Instance, opt Options, sc *Scratch) (*Trace, error) {
	opt.Workers = 1
	return run(s, opt, sc, Ablation{})
}

// TStage is the kernel stage of §5, the one loop every solve path runs:
// it evaluates t_u for each agent in dirty (every agent when dirty is nil)
// and returns the t-vector, which lives in sc's buffer. When baseT is
// non-nil the buffer starts as a copy of it, so agents outside dirty keep
// their base values — bit-identical to a full evaluation whenever baseT
// came from an instance that agrees with s on the radius-TRadius(r)
// neighbourhood of every agent not in dirty (see delta.Plan).
//
// One worker (opt.Workers == 1) evaluates on sc's reusable evaluator; more
// fan out over per-chunk evaluators. Every worker checks ctx before each
// agent, and a shared stop flag spreads a detected cancellation to the
// others; a nil ctx skips the checks.
func (sc *Scratch) TStage(ctx context.Context, s *structured.Instance, opt Options, dirty []int, baseT []float64) ([]float64, error) {
	opt, err := opt.Normalized()
	if err != nil {
		return nil, err
	}
	if baseT != nil && len(baseT) != s.N {
		return nil, fmt.Errorf("core: base T has %d entries, instance has %d agents", len(baseT), s.N)
	}
	for _, v := range dirty {
		if v < 0 || v >= s.N {
			return nil, fmt.Errorf("core: dirty agent %d out of range [0, %d)", v, s.N)
		}
	}
	r := opt.R - 2
	t := grow(&sc.t, s.N)
	copy(t, baseT)
	n := s.N
	if dirty != nil {
		n = len(dirty)
	}
	if opt.Workers == 1 {
		var stop atomic.Bool
		sc.ev.reset(s, r)
		tChunk(ctx, &stop, &sc.ev, t, dirty, 0, n, opt.BinIters)
	} else {
		var stop atomic.Bool
		par.ForEachChunk(n, opt.Workers, func(lo, hi int) {
			tChunk(ctx, &stop, newEvaluator(s, r), t, dirty, lo, hi, opt.BinIters)
		})
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// tChunk evaluates t_u for positions [lo, hi) of the work list: dirty, or
// every agent when dirty is nil.
func tChunk(ctx context.Context, stop *atomic.Bool, ev *evaluator, t []float64, dirty []int, lo, hi, binIters int) {
	for j := lo; j < hi; j++ {
		if ctx != nil {
			if stop.Load() {
				return
			}
			if ctx.Err() != nil {
				stop.Store(true)
				return
			}
		}
		u := j
		if dirty != nil {
			u = dirty[j]
		}
		t[u] = ev.computeT(int32(u), binIters)
	}
}

// Tail runs the post-kernel stages of §5 — smoothing, the g± recursions,
// the output (18) and the upper bound — on a complete t-vector, in sc's
// buffers. Given the t-vector a full solve of s produces, the trace is
// bit-identical to that solve's. The trace keeps t as its T and aliases sc
// like SolveScratch's.
//
// ball and base mirror TStage's dirty and baseT. A nil ball derives every
// agent. Otherwise ball lists agents in ascending order, base is a trace
// from Own, and S, g± and x start as copies of base's: only the agents in
// ball are re-derived, in O(ball) work beyond the copies. The trace is
// still bit-identical to a full tail whenever base is the trace of an
// instance that agrees with s on the radius-OutputRadius(r) neighbourhood
// of every agent not in ball, and t agrees with base.T outside ball (see
// delta.Scratch.Plan).
func (sc *Scratch) Tail(s *structured.Instance, opt Options, t []float64, ball []int, base *Trace) (*Trace, error) {
	opt, err := opt.Normalized()
	if err != nil {
		return nil, err
	}
	if len(t) != s.N {
		return nil, fmt.Errorf("core: t-vector has %d entries, instance has %d agents", len(t), s.N)
	}
	if ball == nil {
		return sc.tail(s, opt, t, Ablation{}), nil
	}
	if base == nil || base.byT == nil || len(base.T) != s.N || base.R != opt.R {
		return nil, fmt.Errorf("core: a ball-local tail needs a base trace from Own over %d agents at R=%d", s.N, opt.R)
	}
	for j, v := range ball {
		if v < 0 || v >= s.N || j > 0 && v <= ball[j-1] {
			return nil, fmt.Errorf("core: ball agent %d out of range [0, %d) or out of ascending order", v, s.N)
		}
	}
	return sc.ballTail(s, opt, t, ball, base), nil
}

// tail is Tail on normalized options, with ab switching off design
// elements for SolveAblated.
func (sc *Scratch) tail(s *structured.Instance, opt Options, t []float64, ab Ablation) *Trace {
	r := opt.R - 2
	tr := &Trace{R: opt.R, SmallR: r, T: t}

	tr.S = grow(&sc.sA, s.N)
	copy(tr.S, t)
	if !ab.NoSmoothing {
		tr.S = smoothInto(s, r, tr.S, grow(&sc.sB, s.N))
	}

	tr.GPlus = growMatrix(&sc.gp, &sc.gpB, r+1, s.N)
	tr.GMinus = growMatrix(&sc.gm, &sc.gmB, r+1, s.N)
	computeGInto(s, tr.S, r, tr.GPlus, tr.GMinus)

	tr.X = grow(&sc.x, s.N)
	switch ab.Role {
	case RoleDown:
		singleRoleOutputInto(tr.GPlus, opt.R, tr.X)
	case RoleUp:
		singleRoleOutputInto(tr.GMinus, opt.R, tr.X)
	default:
		outputInto(tr.GPlus, tr.GMinus, opt.R, tr.X, grow(&sc.gps, r+1), grow(&sc.gms, r+1))
	}

	for u, tu := range t {
		if u == 0 || tu < tr.UpperBound {
			tr.UpperBound = tu
		}
	}
	return tr
}

// ballTail is Tail's ball-local path on validated arguments. Each stage
// runs the full tail's per-agent function on the ball alone, in the full
// tail's dependency order, reading the base's values wherever a neighbour
// lies outside the ball — values the edit cannot have moved.
func (sc *Scratch) ballTail(s *structured.Instance, opt Options, t []float64, ball []int, base *Trace) *Trace {
	r := opt.R - 2
	tr := &Trace{R: opt.R, SmallR: r, T: t}

	tr.S = grow(&sc.sA, s.N)
	copy(tr.S, base.S)
	sc.smoothBall(s, r, t, ball, tr.S)

	tr.GPlus = growMatrix(&sc.gp, &sc.gpB, r+1, s.N)
	tr.GMinus = growMatrix(&sc.gm, &sc.gmB, r+1, s.N)
	for d := 0; d <= r; d++ {
		copy(tr.GPlus[d], base.GPlus[d])
		copy(tr.GMinus[d], base.GMinus[d])
	}
	for d := 0; d <= r; d++ {
		for _, v := range ball {
			tr.GPlus[d][v] = gPlusAt(s, tr.GMinus, d, v)
		}
		for _, v := range ball {
			tr.GMinus[d][v] = gMinusAt(s, tr.S, tr.GPlus, d, v)
		}
	}

	tr.X = grow(&sc.x, s.N)
	copy(tr.X, base.X)
	gps, gms := grow(&sc.gps, r+1), grow(&sc.gms, r+1)
	for _, v := range ball {
		tr.X[v] = outputAt(tr.GPlus, tr.GMinus, opt.R, v, gps, gms)
	}

	// The upper bound is the one global quantity: the minimum of t over
	// the ball, and of base.T — which t equals there — over the rest, whose
	// smallest entry is the first agent in base's T order outside the ball.
	first := true
	take := func(tu float64) {
		if first || tu < tr.UpperBound {
			tr.UpperBound, first = tu, false
		}
	}
	for _, v := range ball {
		take(t[v])
	}
	for _, v := range base.byT {
		if _, in := slices.BinarySearch(ball, int(v)); !in {
			take(base.T[v])
			break
		}
	}
	return tr
}

// smoothBall writes s_v into out for the agents of ball only, bit-identical
// to smoothInto's. Round k of the diffusion needs round k−1's values one
// agent-step further out, so round k runs over the agents within 2r+1−k
// steps of the ball — a region that shrinks to the ball itself — through
// the full diffusion's per-agent step. Round 0's values are t.
func (sc *Scratch) smoothBall(s *structured.Instance, r int, t []float64, ball []int, out []float64) {
	rounds := 2*r + 1
	ends := sc.reach(s, ball, rounds-1)
	bufs := [2][]float64{grow(&sc.sB, s.N), grow(&sc.sC, s.N)}
	cur := t
	for round := 1; round <= rounds; round++ {
		next := bufs[round%2]
		if round == rounds {
			next = out
		}
		for _, v := range sc.region[:ends[rounds-round]] {
			next[v] = minAround(s, cur, int(v))
		}
		cur = next
	}
}

// reach lists in sc.region the agents within steps agent-steps of ball —
// one step is a constraint partner or an objective peer — in BFS order,
// and returns the prefix ends: sc.region[:ends[k]] are the agents within
// k steps.
func (sc *Scratch) reach(s *structured.Instance, ball []int, steps int) []int {
	sc.epoch++
	ep := sc.epoch
	at := reuse.Grow(&sc.at, s.N)
	region := sc.region[:0]
	for _, v := range ball {
		at[v] = ep
		region = append(region, int32(v))
	}
	ends := append(sc.ends[:0], len(region))
	visit := func(w int32) {
		if at[w] != ep {
			at[w] = ep
			region = append(region, w)
		}
	}
	for lo := 0; len(ends) <= steps; {
		hi := len(region)
		for _, v := range region[lo:hi] {
			for _, i := range s.ConsOf[v] {
				w, _, _ := s.Partner(int(i), v)
				visit(w)
			}
			for _, w := range s.Objs[s.ObjOf[v]] {
				visit(w)
			}
		}
		lo = hi
		ends = append(ends, len(region))
	}
	sc.region, sc.ends = region, ends
	return ends
}
