package core

import (
	"math"

	"repro/internal/structured"
)

// evaluator computes the recursions (5)–(7) for one root agent u at a given
// ω, with memoisation keyed on (agent, depth, sign).
//
// Two occurrences of the same agent at the same depth of the alternating
// tree A_u always carry the same f± value, because (6) sums over the full
// peer set N(v) and (7) minimises over the full constraint set Iv — neither
// depends on which walk reached the occurrence. Memoisation therefore
// collapses the exponentially-branching tree walk into at most
// N·(r+1) evaluations per sign without changing any value.
//
// Each memo slot also carries the slope in ω of the linear piece active at
// the evaluated ω (see piece), which is what lets computeT find t_u from a
// few evaluations instead of one per bisection step.
//
// Memo slots are invalidated in O(1) between evaluations by an epoch
// counter. The tables are sized N·(r+1), one row per agent of the
// instance, so one evaluator serves every root in turn.
type evaluator struct {
	s *structured.Instance
	r int

	width int // agent rows per depth: s.N

	omega float64
	ok    bool // condition (8): every evaluated f+ is ≥ 0

	plus, minus         []piece
	plusSeen, minusSeen []uint64
	epoch               uint64

	// root is f−_{u,r} of the last evaluation, and drop the largest
	// Newton step among its violated f+ (see step).
	root piece
	drop float64
	// wild is set when an evaluation reads a coefficient outside
	// (0, +Inf), where computeT's bracketing is not proven exact.
	wild bool
	// probes counts evaluations of the feasibility predicate: the kernel's
	// unit of work, deterministic for a given input.
	probes int
}

// piece is one memo slot: an f± value at the evaluated ω and the slope in
// ω of the linear piece of f± active there. At a kink it is the slope of
// the piece to the left, the side the search approaches t_u from.
type piece struct{ v, s float64 }

// newEvaluator allocates the memo tables for one worker.
func newEvaluator(s *structured.Instance, r int) *evaluator {
	e := &evaluator{}
	e.reset(s, r)
	return e
}

// reset retargets the evaluator at a new instance and radius, reusing the
// memo tables when they are large enough. Stale Seen entries are harmless:
// the epoch counter is monotone across resets, so slots written by earlier
// runs never match a future epoch.
func (e *evaluator) reset(s *structured.Instance, r int) {
	e.s, e.r, e.width = s, r, s.N
	n := s.N * (r + 1)
	if cap(e.plus) < n {
		e.plus = make([]piece, n)
		e.minus = make([]piece, n)
		e.plusSeen = make([]uint64, n)
		e.minusSeen = make([]uint64, n)
		return
	}
	e.plus = e.plus[:n]
	e.minus = e.minus[:n]
	e.plusSeen = e.plusSeen[:n]
	e.minusSeen = e.minusSeen[:n]
}

// slot maps (agent, depth) to a memo index.
func (e *evaluator) slot(v int32, d int) int {
	return d*e.width + int(v)
}

// fplus returns f+_{u,v,d}(ω) per (5)/(7) and records condition (8).
func (e *evaluator) fplus(v int32, d int) piece {
	slot := e.slot(v, d)
	if e.plusSeen[slot] == e.epoch {
		return e.plus[slot]
	}
	var p piece
	if d == 0 {
		p.v = e.s.Caps[v] // (5), constant in ω
		if !(p.v >= 0) {
			e.wild = true
		}
	} else {
		for j, i := range e.s.ConsOf[v] {
			w, av, aw := e.s.Partner(int(i), v)
			if !(av > 0 && av <= math.MaxFloat64 && aw > 0 && aw <= math.MaxFloat64) {
				e.wild = true
			}
			m := e.fminus(w, d-1)
			cand := GPlusCandidate(av, aw, m.v)
			slope := -aw * m.s / av
			if j == 0 || cand < p.v {
				p = piece{cand, slope}
			} else if cand == p.v && slope > p.s {
				p.s = slope // tied minimisers: to the left the least steep stays least
			}
		}
	}
	if p.v < 0 {
		e.ok = false // condition (8) violated at this ω
		if p.s < 0 {
			e.drop = max(e.drop, p.v/p.s)
		}
	}
	e.plus[slot] = p
	e.plusSeen[slot] = e.epoch
	return p
}

// fminus returns f−_{u,v,d}(ω) per (6).
func (e *evaluator) fminus(v int32, d int) piece {
	slot := e.slot(v, d)
	if e.minusSeen[slot] == e.epoch {
		return e.minus[slot]
	}
	sum, slope := 0.0, 0.0
	e.s.PeersDo(v, func(w int32) {
		p := e.fplus(w, d)
		sum += p.v
		slope += p.s
	})
	p := piece{v: HingePos(e.omega - sum)}
	if p.v > 0 {
		p.s = 1 - slope
	}
	e.minus[slot] = p
	e.minusSeen[slot] = e.epoch
	return p
}

// feasible reports whether ω satisfies conditions (8) and (9) for root u.
// Both conditions are monotone in ω (f+ non-increasing, f− non-decreasing),
// so the feasible set is an interval [0, t_u].
func (e *evaluator) feasible(u int32, omega float64) bool {
	e.probes++
	e.epoch++
	e.omega = omega
	e.ok = true
	e.drop = 0
	e.root = e.fminus(u, e.r)
	return e.ok && e.root.v <= e.s.Caps[u] // (9)
}

// upper is the search start Σ_{w∈Vk(u)} cap_w: objective k(u) cannot
// exceed it, so neither can t_u.
func (e *evaluator) upper(u int32) float64 {
	hi := 0.0
	for _, w := range e.s.Objs[e.s.ObjOf[u]] {
		hi += e.s.Caps[w]
	}
	return hi
}

// Step caps of computeT's bracketing. They bound the work a bracket can
// waste, so the worst case is the plain bisection's probe count plus a
// constant. Newton converges within a dozen steps on every in-repo family
// up to R = 5, and a converged step leaves τ within a few ulps.
const (
	newtonSteps = 32
	gallopSteps = 8
)

// bracket is what the evaluations so far prove about τ, the largest
// feasible float: feas ≤ τ < infeas.
type bracket struct{ feas, infeas float64 }

// computeT returns t_u = the optimum of the max-min LP on A_u (Lemma 3), as
// the paper's "simple binary search" finds it: exactly the bits of
// BinarySearch(upper(u), iters, feasible), a lower bound on t_u within
// one bracket width. It gets them from a few evaluations instead of one
// per halving.
//
// Why the bits hold. Say every coefficient the root's recursion visits is
// in (0, +Inf). Then f+ is never NaN (f− is a hinge, so never NaN either),
// every operation of (5)–(7) is monotone under round-to-nearest, and the
// memo visits the same DAG at every ω. At a feasible ω every f+ is ≥ 0, so
// no sum mixes +Inf and −Inf, and by induction over the depth every f+ is
// at least as large, and every f− at most as large, at any smaller ω. So
// the predicate is monotone in float64: feasible exactly up to τ.
// BinarySearch's probes and result are then a function of hi, iters and τ
// alone, and a bracket proven by real evaluations answers every probe
// outside it without evaluating: the replay is bit-identical.
//
// The bracket. In exact arithmetic every f+ is concave and every f−
// convex, piecewise-linear in ω, so the excess h(ω) = max(f−_{u,r} −
// cap_u, −min f+) is convex and nondecreasing and feasibility is h ≤ 0.
// At an infeasible ω the tangent of each violated term — the slope of its
// piece to the left rides in the memo — stays violated down to its own
// root, so τ lies below the lowest of those roots: Newton steps from hi
// that take the farthest of them never pass τ. A gallop in ulps from the
// last step then finds a feasible neighbour. Rounding can only cost
// probes, never bits: every bracket end is an evaluated ω.
//
// Plain bisection stays where the proof does not reach — a root whose
// recursion reads a coefficient outside (0, +Inf), which valid input can
// reach through §4.6's division by γ_v — and at iters ≤ 2, where it is
// cheaper. There the replay evaluates every probe but hi.
func (e *evaluator) computeT(u int32, iters int) float64 {
	hi := e.upper(u)
	e.wild = false
	if e.feasible(u, hi) {
		return hi
	}
	b := bracket{feas: 0, infeas: hi}
	if iters > 2 && !e.wild && hi <= math.MaxFloat64 {
		e.narrow(u, &b)
	}
	return BinarySearch(hi, iters, func(omega float64) bool {
		switch {
		case omega <= b.feas:
			return true
		case omega >= b.infeas:
			return false
		}
		ok := e.feasible(u, omega)
		if ok {
			b.feas = omega
		} else {
			b.infeas = omega
		}
		return ok
	})
}

// narrow tightens b around τ: Newton steps on the excess from b.infeas, the
// last evaluated and infeasible ω, then — once a step converges or lands
// feasible — a gallop from that side. Any other stop (a flat, non-finite
// or overshooting piece, or the step cap) leaves the rest to the replay.
func (e *evaluator) narrow(u int32, b *bracket) {
	for k := 0; k < newtonSteps; k++ {
		d := e.step(u)
		if !(d > 0) {
			return
		}
		next := b.infeas - d
		if next >= b.infeas {
			e.gallop(u, b, false) // converged to within an ulp of τ
			return
		}
		if !(next > b.feas) {
			return
		}
		if e.feasible(u, next) {
			b.feas = next
			e.gallop(u, b, true)
			return
		}
		b.infeas = next
	}
}

// step returns the Newton step below the last evaluated ω: the largest
// distance over which the tangent of a violated condition stays violated
// — (9), or (8) at some f+.
func (e *evaluator) step(u int32) float64 {
	d := e.drop
	if a := e.root.v - e.s.Caps[u]; a > 0 && e.root.s > 0 {
		d = max(d, a/e.root.s)
	}
	return d
}

// gallop steps from one end of b toward the other in doubling ulps — up
// from feas, or down from infeas — until an evaluation crosses τ or the
// next step would leave the bracket. Both ends are nonnegative and finite,
// where float order is the order of the bit patterns.
func (e *evaluator) gallop(u int32, b *bracket, up bool) {
	lo, hi := math.Float64bits(b.feas), math.Float64bits(b.infeas)
	for k, step := 0, uint64(1); k < gallopSteps && hi-lo > step; k, step = k+1, 2*step {
		if up {
			c := math.Float64frombits(lo + step)
			if !e.feasible(u, c) {
				b.infeas = c
				return
			}
			b.feas, lo = c, lo+step
		} else {
			c := math.Float64frombits(hi - step)
			if e.feasible(u, c) {
				b.feas = c
				return
			}
			b.infeas, hi = c, hi-step
		}
	}
}
