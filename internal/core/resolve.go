package core

import "repro/internal/structured"

// This file exports the two halves of an incremental re-solve for callers
// that compute the dirty agent set themselves (delta.Plan): RecomputeT
// re-prices exactly the named agents against the edited instance, and
// DeriveFromT re-runs the tail on the merged t-vector. Both allocate their
// results; the serving path runs the same halves on a worker's Scratch
// (TStage, Tail).

// RecomputeT returns a copy of baseT with t_u freshly evaluated on s for
// exactly the agents in dirty (every agent when dirty is nil), on
// opt.Workers workers. The result equals a full solve's t-vector bit for
// bit whenever baseT came from an instance that agrees with s on the
// radius-(TRadius(r)) neighbourhood of every agent NOT in dirty — the
// caller owns that guarantee (see delta.Plan). baseT must have one entry
// per agent of s; neither baseT nor dirty is modified.
func RecomputeT(s *structured.Instance, baseT []float64, dirty []int, opt Options) ([]float64, error) {
	return new(Scratch).TStage(nil, s, opt, dirty, baseT)
}

// DeriveFromT runs the tail of the §5 algorithm — smoothing, the g±
// recursions, the output (18) and the upper bound — on a complete t-vector
// and returns the full trace. Given the t-vector a full Solve of s would
// have produced, the returned trace is bit-identical to that Solve's. The
// t slice is copied, not retained.
func DeriveFromT(s *structured.Instance, t []float64, opt Options) (*Trace, error) {
	return new(Scratch).Tail(s, opt, append([]float64(nil), t...), nil, nil)
}
