package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/reuse"
	"repro/internal/structured"
)

// Scratch is the reusable working memory of one solver: an evaluator's
// memo tables per t-stage worker and the float buffers of the tail.
// Buffers grow on demand and are retained between solves, so a scratch
// that solves a steady stream of similarly-sized instances stops
// allocating in the kernel after warm-up, at any worker count. A Scratch
// is not safe for concurrent use; the zero value is ready.
type Scratch struct {
	evs      []evaluator
	t        []float64
	sA, sB   []float64
	gp, gm   [][]float64
	gpB, gmB []float64
	x        []float64
	cols     []float64

	// The tail's work region (see reach): visit stamps (an entry equal to
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
// The work list is split into at most opt.Workers contiguous chunks (0
// means GOMAXPROCS), each evaluated on its own evaluator of sc: one chunk
// runs on the caller's goroutine, more run on one goroutine each. Every
// worker checks ctx before each agent, and a shared stop flag spreads a
// detected cancellation to the others; a nil ctx skips the checks.
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
	workers := opt.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk := (n + workers - 1) / workers
	if chunk >= n {
		var stop atomic.Bool
		ev := &sc.evaluators(1)[0]
		ev.reset(s, r)
		tChunk(ctx, &stop, ev, t, dirty, 0, n, opt.BinIters)
	} else {
		sc.fanOut(ctx, s, r, t, dirty, n, chunk, opt.BinIters)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// fanOut runs the chunks [lo, lo+chunk) of TStage's n-agent work list on
// one goroutine and one of sc's evaluators each. It is a function of its
// own so that the one-chunk path captures nothing: variables a goroutine
// captures move to the heap.
func (sc *Scratch) fanOut(ctx context.Context, s *structured.Instance, r int, t []float64, dirty []int, n, chunk, binIters int) {
	evs := sc.evaluators((n + chunk - 1) / chunk)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := range evs {
		wg.Add(1)
		go func(ev *evaluator, lo, hi int) {
			defer wg.Done()
			ev.reset(s, r)
			tChunk(ctx, &stop, ev, t, dirty, lo, hi, binIters)
		}(&evs[c], c*chunk, min((c+1)*chunk, n))
	}
	wg.Wait()
}

// evaluators returns sc's first k evaluators, adding fresh ones as needed.
func (sc *Scratch) evaluators(k int) []evaluator {
	if len(sc.evs) < k {
		sc.evs = append(sc.evs, make([]evaluator, k-len(sc.evs))...)
	}
	return sc.evs[:k]
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
// delta.Scratch.Plan). A ball of every agent is a nil one: nothing is
// copied.
func (sc *Scratch) Tail(s *structured.Instance, opt Options, t []float64, ball []int, base *Trace) (*Trace, error) {
	opt, err := opt.Normalized()
	if err != nil {
		return nil, err
	}
	if len(t) != s.N {
		return nil, fmt.Errorf("core: t-vector has %d entries, instance has %d agents", len(t), s.N)
	}
	if ball != nil {
		if base == nil || !base.owned || len(base.T) != s.N || base.R != opt.R {
			return nil, fmt.Errorf("core: a ball-local tail needs a base trace from Own over %d agents at R=%d", s.N, opt.R)
		}
		for j, v := range ball {
			if v < 0 || v >= s.N || j > 0 && v <= ball[j-1] {
				return nil, fmt.Errorf("core: ball agent %d out of range [0, %d) or out of ascending order", v, s.N)
			}
		}
		if len(ball) == s.N {
			ball, base = nil, nil
		}
	}
	return sc.tail(s, opt, t, ball, base, Ablation{}), nil
}

// tail is Tail on validated arguments, with ab switching off design
// elements for SolveAblated. Each stage runs its per-agent function over
// the work region — the ball, or every agent — in the dependency order of
// §5, reading base's values wherever a neighbour lies outside the ball:
// values the edit cannot have moved.
func (sc *Scratch) tail(s *structured.Instance, opt Options, t []float64, ball []int, base *Trace, ab Ablation) *Trace {
	r := opt.R - 2
	gp := growMatrix(&sc.gp, &sc.gpB, r+1, s.N)
	gm := growMatrix(&sc.gm, &sc.gmB, r+1, s.N)
	x := grow(&sc.x, s.N)
	if base != nil {
		for d := 0; d <= r; d++ {
			copy(gp[d], base.GPlus[d])
			copy(gm[d], base.GMinus[d])
		}
		copy(x, base.X)
	}

	rounds := 2*r + 1
	if ab.NoSmoothing {
		rounds = 0
	}
	sc.reach(s, ball, 2*r)
	work := sc.region[:sc.ends[0]]
	sv := sc.smooth(s, rounds, t, base)

	for d := 0; d <= r; d++ {
		gpd, gmd := gp[d], gm[d]
		for _, v := range work {
			gpd[v] = gPlusAt(s, gm, d, int(v))
		}
		for _, v := range work {
			gmd[v] = gMinusAt(s, sv, gp, d, int(v))
		}
	}

	cols := grow(&sc.cols, 2*(r+1))
	gps, gms := cols[:r+1], cols[r+1:]
	for _, v := range work {
		switch ab.Role {
		case RoleDown:
			x[v] = singleRoleAt(gp, opt.R, int(v))
		case RoleUp:
			x[v] = singleRoleAt(gm, opt.R, int(v))
		default:
			x[v] = outputAt(gp, gm, opt.R, int(v), gps, gms)
		}
	}

	ub := 0.0
	for u, tu := range t {
		if u == 0 || tu < ub {
			ub = tu
		}
	}
	return &Trace{R: opt.R, SmallR: r, T: t, S: sv, GPlus: gp, GMinus: gm, X: x, UpperBound: ub}
}

// smooth returns s, the smoothed bound of §5.3, derived for the agents of
// the work region and base's S elsewhere (when there is a base): s_v =
// min of t over agents within distance 4r+2 of v, via 2r+1 rounds of
// distance-2 min-diffusion. Agents at even distances are linked through
// shared constraints (partners) and shared objectives (peers), and every
// shortest agent-to-agent path passes an agent at each even position.
//
// Round 0's values are t; round k needs round k−1's values one agent-step
// further out, so it runs over the agents within rounds−k steps of the
// work region, a region that shrinks to the work region itself. The rounds
// alternate between two buffers. The last one writes into the buffer whose
// values the round before it has finished reading, so that buffer takes
// base's S first. Zero rounds (the NoSmoothing ablation, never given a
// base) return t itself.
func (sc *Scratch) smooth(s *structured.Instance, rounds int, t []float64, base *Trace) []float64 {
	bufs := [2][]float64{grow(&sc.sA, s.N), grow(&sc.sB, s.N)}
	cur := t
	for round := 1; round <= rounds; round++ {
		next := bufs[round%2]
		if round == rounds && base != nil {
			copy(next, base.S)
		}
		for _, v := range sc.region[:sc.ends[rounds-round]] {
			next[v] = minAround(s, cur, int(v))
		}
		cur = next
	}
	return cur
}

// reach lists in sc.region the agents within steps agent-steps of ball —
// one step is a constraint partner or an objective peer; every agent when
// ball is nil — in BFS order, and in sc.ends the prefix ends:
// sc.region[:sc.ends[k]] are the agents within k steps, and
// sc.region[:sc.ends[0]] is ball.
func (sc *Scratch) reach(s *structured.Instance, ball []int, steps int) {
	sc.epoch++
	ep := sc.epoch
	region := slices.Grow(sc.region[:0], s.N)
	var at []uint64
	if ball == nil {
		for v := range s.N {
			region = append(region, int32(v))
		}
	} else {
		at = reuse.Grow(&sc.at, s.N)
		for _, v := range ball {
			at[v] = ep
			region = append(region, int32(v))
		}
	}
	ends := append(slices.Grow(sc.ends[:0], steps+1), len(region))
	visit := func(w int32) {
		if at[w] != ep {
			at[w] = ep
			region = append(region, w)
		}
	}
	for lo := 0; len(ends) <= steps; {
		hi := len(region)
		if hi < s.N { // a region of every agent has nowhere left to grow
			for _, v := range region[lo:hi] {
				for _, i := range s.ConsOf[v] {
					w, _, _ := s.Partner(int(i), v)
					visit(w)
				}
				for _, w := range s.Objs[s.ObjOf[v]] {
					visit(w)
				}
			}
		}
		lo = hi
		ends = append(ends, len(region))
	}
	sc.region, sc.ends = region, ends
}
