package transform

import (
	"math"

	"repro/internal/mmlp"
	"repro/internal/reuse"
)

// This file is the working memory of the §4 pipeline. Every
// transformation step and Preprocess builds its output instance into an
// mmlp.Arena, and its index tables and back-map arrays into buffers, all
// owned by a per-worker Scratch, so a warm worker solving a steady stream
// of similarly-sized instances performs no heap allocations in the
// transform stage.

// grow is the shared arena-resize primitive.
func grow[T any](buf *[]T, n int) []T { return reuse.Grow(buf, n) }

// capsInto is Instance.Caps into a reusable buffer.
func capsInto(in *mmlp.Instance, buf *[]float64) []float64 {
	caps := grow(buf, in.NumAgents)
	for v := range caps {
		caps[v] = math.Inf(1)
	}
	for _, c := range in.Cons {
		for _, t := range c.Terms {
			if cap := 1 / t.Coef; cap < caps[t.Agent] {
				caps[t.Agent] = cap
			}
		}
	}
	return caps
}

// gadget records one §4.2 augmentation: the first of its three agents
// (s; t = s+1, u = s+2) and the coefficient M of its two objectives.
type gadget struct {
	s int32
	m float64
}

// Scratch is the reusable per-worker memory of the §4 pipeline: the
// mmlp.Arenas the intermediate instances of Preprocess and the five
// Structure steps are built in, the index/counter tables the steps
// consult, and the divisor/parent/γ arrays backing the data-driven
// BackMaps. The zero value is ready; see NewScratch. Not safe for
// concurrent use.
//
// Everything returned by PreprocessScratch and StructureScratch — the
// Preprocessed record, the Pipeline, every Step.Out instance and every
// BackMap — aliases the arena and is valid only until the arena's next
// use. Callers that hand results out must copy them first (the engine
// does: solutions are lifted into fresh memory before they escape).
type Scratch struct {
	// Shared per-step work tables, freely reused between phases.
	caps    []float64
	countA  []int32
	boolV   []bool
	boolK   []bool
	idxA    []int32
	idxB    []int32
	acc     []mmlp.Term
	gadgets []gadget
	emit    emitState

	// Output instances: one arena per pipeline stage, so every stage's
	// input (the previous stage's output) stays alive while it builds.
	pre  mmlp.Arena
	outs [5]mmlp.Arena
	pp   Preprocessed
	pl   Pipeline

	// Back-map arrays live as long as the pipeline they belong to, so the
	// owning step has a dedicated slot rather than a shared work table.
	divisor     []float64
	parentSplit []int32
	parentAug   []int32
	gamma       []float64
}

// NewScratch returns an empty scratch for one worker.
func NewScratch() *Scratch { return &Scratch{} }
