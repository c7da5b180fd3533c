package core

import (
	"fmt"

	"repro/internal/mmlp"
	"repro/internal/structured"
)

// This file exports the per-node arithmetic kernels of the §5 algorithm so
// that internal/dist can execute the identical computation as a
// message-passing protocol. Bit-identical outputs between core.Solve and
// the distributed protocols rely on both sides evaluating exactly these
// expressions in exactly the same order, so the centralised engine calls
// the same functions.

// Normalized returns the options with defaults filled in and reports
// unusable parameter combinations.
func (o Options) Normalized() (Options, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return o, err
	}
	return o, nil
}

// HingePos is the positive part max{0, x}, the hinge of the recursions (6)
// and (13).
func HingePos(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

// GPlusCandidate evaluates one minimand of the recursions (7) and (14):
// (1 − a_iw·g)/a_iv, where g is the partner's f−/g− value, av the caller's
// coefficient in constraint i and aw the partner's.
func GPlusCandidate(av, aw, g float64) float64 {
	return (1 - aw*g) / av
}

// CombineOutput evaluates (18) for one agent: x_v = (1/2R) Σ_d (g+_d + g−_d),
// summing in increasing depth order.
func CombineOutput(gp, gm []float64, R int) float64 {
	sum := 0.0
	for d := range gp {
		sum += gp[d] + gm[d]
	}
	return sum / (2 * float64(R))
}

// BinarySearch finds the largest feasible ω in [0, hi] for a predicate that
// is monotone (feasible on an interval [0, t]): it returns hi when hi
// itself is feasible and otherwise the feasible endpoint of the final
// bracket after at most iters halvings, stopping early when the bracket is
// exhausted at float64 resolution. The iteration sequence — and hence the
// returned bits — is a pure function of (hi, iters, feasible), which is
// what makes centralised and distributed t_u computations agree exactly.
// Every t_u runs this loop: the anonymous view protocol calls it, and the
// centralised kernel (computeT) replays it inline against a bracket of the
// largest feasible float, answering the probes outside the bracket without
// evaluating them. FuzzThresholdKernel holds the two to the same bits.
func BinarySearch(hi float64, iters int, feasible func(omega float64) bool) float64 {
	if feasible(hi) {
		return hi
	}
	lo := 0.0
	for it := 0; it < iters; it++ {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break // bracket exhausted at float64 resolution
		}
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Evaluator exposes the per-root t_u computation (recursions (5)–(7) with
// the binary search of §5.2, found by the threshold search of computeT)
// for callers outside the package; the dist package's record protocol
// prices each agent's t_u on a pool of them, so it runs exactly the
// centralised kernel. The evaluator is not safe for concurrent use.
type Evaluator struct {
	ev *evaluator
}

// NewEvaluator allocates an evaluator for radius r = R−2 on s.
func NewEvaluator(s *structured.Instance, r int) (*Evaluator, error) {
	if r < 0 {
		return nil, fmt.Errorf("core: negative recursion radius %d", r)
	}
	return &Evaluator{ev: newEvaluator(s, r)}, nil
}

// ComputeT returns t_u as computed by the centralised engine: the largest ω
// feasible for root u within binIters bracket halvings (0 means
// mmlp.DefaultBinIters) — the bits of BinarySearch over the recursions,
// from the few evaluations of the threshold search.
func (e *Evaluator) ComputeT(u int32, binIters int) float64 {
	if binIters == 0 {
		binIters = mmlp.DefaultBinIters
	}
	return e.ev.computeT(u, binIters)
}
