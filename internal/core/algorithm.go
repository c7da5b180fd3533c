// Package core implements the paper's contribution: the local
// approximation algorithm of §5 for structured max-min LPs, achieving
// factor 2(1−1/ΔK)(1+1/(R−1)) on the structured form and therefore
// ΔI(1−1/ΔK)+ε for general max-min LPs after the §4 transformations.
//
// The implementation mirrors the paper's three stages:
//
//  1. Per-agent upper bounds t_u: the optimum of the max-min LP on the
//     alternating tree A_u (§5.1–§5.2), as the "simple binary search" over
//     ω on the monotone recursions (5)–(7) that the paper prescribes for
//     practice finds it — the same bits, from 3–5 evaluations of the
//     recursions instead of one per halving: Newton steps on their
//     piecewise-linear excess bracket t_u, and the bisection is replayed
//     against the bracket (tu.go). Distinct occurrences of the same agent
//     at the same depth of A_u share their f± value, so the recursion is
//     memoised on (agent, depth, sign) and runs in time proportional to the
//     radius-Θ(R) neighbourhood rather than the unfolded tree.
//  2. Smoothing (§5.3): s_v = min of t_u over agents u within graph
//     distance 4r+2, computed by 2r+1 rounds of distance-2 min-diffusion.
//  3. The g± recursions (12)–(14) and the output (18).
//
// All stages are local: stage 1 reads a radius-(4r+3) view, stage 2 adds
// 4r+2 rounds, stage 3 adds ≈4r+2 more. So each stage is one loop over a
// work list on a reusable Scratch (Scratch.TStage, Scratch.Tail): a cold
// solve runs it over every agent, and an incremental update (§1.3) over
// the agents an edit can reach, keeping every other value of the base
// solve. internal/dist executes the same computation as an explicit
// message-passing protocol.
package core

import (
	"fmt"
	"slices"

	"repro/internal/mmlp"
	"repro/internal/structured"
)

// Options configures a run of the local algorithm.
type Options struct {
	// R is the shifting parameter (≥ 2). The local horizon is Θ(R) and the
	// approximation factor on structured instances is
	// 2(1−1/ΔK)·(1+1/(R−1)).
	R int
	// BinIters caps the binary-search iterations for each t_u. 0 means
	// mmlp.DefaultBinIters, which drives the bracket to float64 exhaustion.
	BinIters int
	// Workers is the parallelism for the t_u computations; 0 means
	// GOMAXPROCS. Each worker evaluates one contiguous chunk of the agents
	// on its own evaluator of the Scratch.
	Workers int
}

// withDefaults fills in zero fields.
func (o Options) withDefaults() Options {
	if o.R == 0 {
		o.R = mmlp.DefaultR
	}
	if o.BinIters == 0 {
		o.BinIters = mmlp.DefaultBinIters
	}
	return o
}

// validate rejects unusable parameter combinations.
func (o Options) validate() error {
	if o.R < 2 {
		return fmt.Errorf("core: R must be ≥ 2, got %d", o.R)
	}
	if o.BinIters < 0 || o.Workers < 0 {
		return fmt.Errorf("core: negative BinIters or Workers")
	}
	return nil
}

// Trace is the complete state of one run: the output x plus every
// intermediate quantity of §5, which the tests check against the lemmas of
// §6 and the experiments report on.
type Trace struct {
	// R and r = R−2 echo the options.
	R, SmallR int
	// T[u] is the binary-search approximation of t_u (a lower bound on t_u
	// within the bracket width, hence still a valid ingredient for s_v).
	T []float64
	// S[v] = min_{u: dist(v,u) ≤ 4r+2} T[u], the smoothed bound of §5.3.
	S []float64
	// GPlus[d][v] and GMinus[d][v] are g±_{v,d} of (12)–(14), d = 0…r.
	GPlus, GMinus [][]float64
	// X is the output (18): x_v = (1/2R) Σ_d (g+_{v,d} + g−_{v,d}).
	X []float64
	// UpperBound = min_v T[v] ≥ the optimum of the instance (Lemma 2), a
	// certificate usable when the instance is too large for an LP solve.
	UpperBound float64

	// owned marks a copy from Own, the only trace a ball-local Tail
	// accepts as its base.
	owned bool
}

// Own returns a copy of tr that owns every array — a trace from a Scratch
// aliases the scratch — for use as the base of a ball-local Tail. The copy
// is read-only from then on, so any number of concurrent Tails may share
// it.
func (tr *Trace) Own() *Trace {
	c := &Trace{R: tr.R, SmallR: tr.SmallR, UpperBound: tr.UpperBound, owned: true,
		T: slices.Clone(tr.T), S: slices.Clone(tr.S), X: slices.Clone(tr.X)}
	for d := range tr.GPlus {
		c.GPlus = append(c.GPlus, slices.Clone(tr.GPlus[d]))
		c.GMinus = append(c.GMinus, slices.Clone(tr.GMinus[d]))
	}
	return c
}

// Solve runs the local algorithm on a structured instance and returns the
// full trace. The solution Trace.X is feasible (Lemma 11) and satisfies
// ω(X) ≥ opt / (2(1−1/ΔK)(1+1/(R−1))) (Lemma 12 with §6.3).
func Solve(s *structured.Instance, opt Options) (*Trace, error) {
	return run(s, opt, &Scratch{}, Ablation{})
}

// run is the whole §5 pipeline every solve entry point composes: the
// t-stage over every agent, then the tail.
func run(s *structured.Instance, opt Options, sc *Scratch, ab Ablation) (*Trace, error) {
	opt, err := opt.Normalized()
	if err != nil {
		return nil, err
	}
	t, err := sc.TStage(nil, s, opt, nil, nil)
	if err != nil {
		return nil, err
	}
	return sc.tail(s, opt, t, nil, nil, ab), nil
}

// gPlusAt evaluates g+_{v,d}: (12) at d = 0, (14) above it.
func gPlusAt(s *structured.Instance, gm [][]float64, d, v int) float64 {
	if d == 0 {
		return s.Caps[v] // (12)
	}
	// (14): g+_{v,d} = min_i (1 − a_{i,n} g−_{n,d−1}) / a_iv.
	best := 0.0
	for j, i := range s.ConsOf[v] {
		n, av, aw := s.Partner(int(i), int32(v))
		val := GPlusCandidate(av, aw, gm[d-1][n])
		if j == 0 || val < best {
			best = val
		}
	}
	return best
}

// gMinusAt evaluates (13): g−_{v,d} = max{0, s_v − Σ_{w∈N(v)} g+_{w,d}}.
func gMinusAt(s *structured.Instance, sv []float64, gp [][]float64, d, v int) float64 {
	sum := 0.0
	s.PeersDo(int32(v), func(w int32) { sum += gp[d][w] })
	return HingePos(sv[v] - sum)
}

// outputAt evaluates (18) for agent v, with gps/gms as column scratch of
// length len(gp).
func outputAt(gp, gm [][]float64, R, v int, gps, gms []float64) float64 {
	for d := range gp {
		gps[d], gms[d] = gp[d][v], gm[d][v]
	}
	return CombineOutput(gps, gms, R)
}

// minAround is one diffusion step at v: the minimum of cur over v, its
// constraint partners and its objective peers, in that order.
func minAround(s *structured.Instance, cur []float64, v int) float64 {
	m := cur[v]
	for _, i := range s.ConsOf[v] {
		w, _, _ := s.Partner(int(i), int32(v))
		if cur[w] < m {
			m = cur[w]
		}
	}
	s.PeersDo(int32(v), func(w int32) {
		if cur[w] < m {
			m = cur[w]
		}
	})
	return m
}
