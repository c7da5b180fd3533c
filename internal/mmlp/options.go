package mmlp

import "fmt"

// DefaultR and DefaultBinIters are what a zero R or BinIters means, on
// both wires and in the kernel; 100 halvings drive the binary search's
// bracket to float64 exhaustion.
const (
	DefaultR        = 3
	DefaultBinIters = 100
)

// SolveOptions are a solve's settings: with the instance, everything that
// decides its answer bits or whether it fails, and so what the canon key
// covers. SolveRequest spells them on the JSON wire, the canon options
// header on the binary one. How many goroutines evaluate the kernel is
// not among them: every count gives the same bits (engine.Scratch.Workers).
type SolveOptions struct {
	// Engine is the execution engine.
	Engine Engine
	// R is the shifting parameter (≥ 2, 0 means DefaultR): the guarantee
	// ΔI(1−1/ΔK)(1+1/(R−1)) at a Θ(R) horizon.
	R int
	// BinIters caps the per-agent binary search (0 means DefaultBinIters).
	BinIters int
	// DisableSpecialCases skips the optimal ΔI=1 / ΔK=1 dispatch.
	DisableSpecialCases bool
	// SelfCheck re-verifies the lemma-level invariants of a centralised
	// run (a no-op on the dist engines). It never changes the output bits
	// but can fail a run, so checked and unchecked solves key apart.
	SelfCheck bool
}

// Normalized fills a zero R or BinIters with its default, so every
// spelling of one configuration solves, encodes and keys alike.
func (o SolveOptions) Normalized() SolveOptions {
	if o.R == 0 {
		o.R = DefaultR
	}
	if o.BinIters == 0 {
		o.BinIters = DefaultBinIters
	}
	return o
}

// CheckWire reports the first setting outside what either wire accepts.
// Both decoders call it on normalized options — the canon one on the
// header as read, which the encoder writes normalized, so a zero is out
// of range there — and wrap its error in their own class.
func (o SolveOptions) CheckWire() error {
	switch {
	case o.Engine < EngineCentral || o.Engine > EngineDistributedCompact:
		return fmt.Errorf("engine must be in [0, %d], got %d", int(EngineDistributedCompact), int(o.Engine))
	case o.R < 2 || o.R > MaxWireR:
		return fmt.Errorf("r must be in [2, %d], got %d", MaxWireR, o.R)
	case o.BinIters < 1 || o.BinIters > MaxWireBinIters:
		return fmt.Errorf("bin_iters must be in [1, %d], got %d", MaxWireBinIters, o.BinIters)
	}
	return nil
}
