package transform

import (
	"math"

	"repro/internal/mmlp"
	"repro/internal/reuse"
)

// This file is the working-memory arena of the §4 pipeline. Every
// transformation step and Preprocess builds its output instance, its index
// tables and its back-map arrays into buffers owned by a per-worker
// Scratch, so a warm worker solving a steady stream of similarly-sized
// instances performs no heap allocations in the transform stage (the
// "Transform-stage scratch" ROADMAP item).

// grow is the shared arena-resize primitive.
func grow[T any](buf *[]T, n int) []T { return reuse.Grow(buf, n) }

// rowBuf accumulates rows of terms in one flat backing array: terms are
// appended, endRow seals the pending terms into the next row, and row
// carves the i-th row as a capacity-clamped subslice. Rows are only carved
// after all appends (see instArena.finish), so a mid-build reallocation of
// the backing can never strand a previously built row.
type rowBuf struct {
	terms []mmlp.Term
	off   []int32
}

func (b *rowBuf) reset() {
	b.terms = b.terms[:0]
	b.off = append(b.off[:0], 0)
}

// add appends one pending term to the row under construction.
func (b *rowBuf) add(agent int, coef float64) {
	b.terms = append(b.terms, mmlp.Term{Agent: agent, Coef: coef})
}

// addTerm is add for a prebuilt term.
func (b *rowBuf) addTerm(t mmlp.Term) { b.terms = append(b.terms, t) }

// copyRow appends ts as one complete row.
func (b *rowBuf) copyRow(ts []mmlp.Term) {
	b.terms = append(b.terms, ts...)
	b.endRow()
}

// endRow seals the pending terms into one row.
func (b *rowBuf) endRow() { b.off = append(b.off, int32(len(b.terms))) }

// pending reports how many terms have been added since the last seal.
func (b *rowBuf) pending() int { return len(b.terms) - int(b.off[len(b.off)-1]) }

func (b *rowBuf) rows() int { return len(b.off) - 1 }

func (b *rowBuf) row(i int) []mmlp.Term {
	return b.terms[b.off[i]:b.off[i+1]:b.off[i+1]]
}

// instArena builds one mmlp.Instance into reusable memory: the row headers
// and the flat term backings survive across solves, so rebuilding a
// similarly-shaped instance allocates nothing.
type instArena struct {
	inst mmlp.Instance
	cons rowBuf
	objs rowBuf
}

func (a *instArena) reset(numAgents int) {
	a.inst.NumAgents = numAgents
	a.cons.reset()
	a.objs.reset()
}

// finish carves the accumulated rows into the arena instance and returns
// it. The result aliases the arena: it is valid until the next reset.
func (a *instArena) finish() *mmlp.Instance {
	cons := grow(&a.inst.Cons, a.cons.rows())
	for i := range cons {
		cons[i] = mmlp.Constraint{Terms: a.cons.row(i)}
	}
	objs := grow(&a.inst.Objs, a.objs.rows())
	for k := range objs {
		objs[k] = mmlp.Objective{Terms: a.objs.row(k)}
	}
	return &a.inst
}

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

// Scratch is the reusable per-worker arena of the §4 pipeline: the
// intermediate instances of Preprocess and the five Structure steps, the
// index/counter tables the steps consult, and the divisor/parent/γ
// arrays backing the data-driven BackMaps. The zero value is ready; see
// NewScratch. Not safe for concurrent use.
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
	pre  instArena
	outs [5]instArena
	pp   Preprocessed
	pl   Pipeline

	// Back-map arrays live as long as the pipeline they belong to, so the
	// owning step has a dedicated slot rather than a shared work table.
	divisor     []float64
	parentSplit []int32
	parentAug   []int32
	gamma       []float64
}

// NewScratch returns an empty arena for one worker.
func NewScratch() *Scratch { return &Scratch{} }
