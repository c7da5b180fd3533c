// Package delta implements incremental re-solving for slowly-changing
// instances, the dynamic-graph corollary of the paper's locality result
// (§1.3): because every kernel value t_u reads only the radius-(4r+3)
// neighbourhood of u, an edit to a few rows of a solved instance can only
// change t_u for agents whose ball touches an edited row. The package
// provides the three ingredients the engine's SolveDelta composes:
//
//   - Record, the per-key cache payload a base solve leaves behind (the
//     canonical instance, the solve options, the kernel t-vector);
//   - Apply, which materialises the edited instance from a base plus a
//     content-addressed edit set, copy-on-write: the edited instance
//     shares every untouched row with its base;
//   - Plan, the hop-exact multi-source BFS that turns the positionally
//     changed rows of the structured forms into the dirty agent set and,
//     run further, the ball of agents whose outputs the edit can move.
//
// The correctness contract is exact: for every agent Plan does NOT mark
// dirty, the radius-(4r+3) ball is positionally identical in the old and
// new structured instances, so recomputing t_u only for dirty agents and
// splicing the rest from the record reproduces a cold solve bit for bit.
// The same holds one level up for the output ball: outside
// core.OutputRadius(r), s, g± and x are the base's.
package delta

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/mmlp"
	"repro/internal/structured"
	"repro/internal/transform"
)

// Record is what a base solve leaves in the result cache for later deltas:
// everything needed to price an edit without re-solving from scratch.
type Record struct {
	// In is the canonical instance the base solve ran on. It is immutable —
	// cache values are shared across requests, and a delta's edited
	// instance shares its untouched rows with its base's.
	In *mmlp.Instance
	// Opts are the normalized solve options the base was keyed under; a
	// delta inherits them, so the edited key is computed under the same
	// options.
	Opts mmlp.SolveOptions
	// T is the kernel t-vector over the base's structured form. It is nil
	// when the pipeline never ran the kernel on the structured form (zero
	// optimum, unbounded, or a trivial-case dispatch): a delta against such
	// a base falls back to a cold solve of the edited instance.
	T []float64

	// once guards the memo: Plan needs the structured form of In, and a
	// ball-local tail needs the base's full trace. Rebuilding either means
	// re-running the pipeline on the whole base — O(n) work per delta that
	// would dwarf the small-edit pricing it enables. The first delta
	// against this record builds them; every later one reuses them, and a
	// base nobody edits never pays for them.
	once sync.Once
	form *BaseForm
	// xOnce guards the memo of the base answer's encoded x, which every
	// delta's reply copies its unchanged entries from.
	xOnce sync.Once
	x     *mmlp.EncodedX
}

// BaseForm is what pricing deltas against a record derives from its base
// once: the structured form and the full trace of the base solve, and,
// when §4 handed the base on unchanged, its preprocessing record and
// pipeline.
type BaseForm struct {
	S     *structured.Instance
	Trace *core.Trace
	// Pre and Pipe are In's own when In is itself in structured form, nil
	// otherwise. Their back-maps then depend on the agent count alone, so
	// they also map back every instance S.Reweighted accepts. Both are
	// shared read-only: map back through Pipe.BackInto.
	Pre  *transform.Preprocessed
	Pipe *transform.Pipeline
}

// Base returns the record's BaseForm, building it with build on the first
// call and memoising the result — including failure (nil): a base whose
// pipeline leaves the standard preprocess→structure shape can never be
// spliced against, so rebuilding would not change the answer. Safe for
// concurrent use; build runs at most once and must return memory the
// record may own (a private scratch arena; the trace from core's
// Trace.Own).
func (r *Record) Base(build func() *BaseForm) *BaseForm {
	r.once.Do(func() { r.form = build() })
	return r.form
}

// EncodedX returns the memo of the base answer's encoded x, building it
// with build on the first call and memoising the result, nil included.
// Safe for concurrent use; build runs at most once.
func (r *Record) EncodedX(build func() *mmlp.EncodedX) *mmlp.EncodedX {
	r.xOnce.Do(func() { r.x = build() })
	return r.x
}

// Bytes estimates the form's heap footprint for cache accounting, from its
// slice lengths as Record.Bytes counts a record: the compact instance, the
// trace's per-agent arrays and, when Pre and Pipe pass In through, the
// lift's agent map.
func (f *BaseForm) Bytes() int64 {
	if f == nil {
		return 0
	}
	n := int64(256) // structs + slice headers
	if s := f.S; s != nil {
		cons := int64(len(s.ConsV))
		n += int64(s.N)*(4+8+24) + 24*int64(len(s.Objs)) + 24*cons
		for _, vs := range s.Objs {
			n += 4 * int64(len(vs))
		}
		for _, is := range s.ConsOf {
			n += 4 * int64(len(is))
		}
		if f.Pre != nil {
			n += 8 * int64(s.N)
		}
	}
	if tr := f.Trace; tr != nil {
		n += 8 * int64(len(tr.T)+len(tr.S)+len(tr.X))
		for d := range tr.GPlus {
			n += 24 + 8*int64(len(tr.GPlus[d])+len(tr.GMinus[d]))
		}
	}
	return n
}

// Bytes estimates the record's heap footprint for cache accounting. Every
// row is charged in full, even one shared with another record's instance:
// the shared rows stay alive as long as either record does.
func (r *Record) Bytes() int64 {
	if r == nil {
		return 0
	}
	n := int64(96) // struct + slice headers
	if r.In != nil {
		rows := int64(len(r.In.Cons) + len(r.In.Objs))
		terms := int64(0)
		for i := range r.In.Cons {
			terms += int64(len(r.In.Cons[i].Terms))
		}
		for k := range r.In.Objs {
			terms += int64(len(r.In.Objs[k].Terms))
		}
		n += 48*rows + 16*terms
	}
	n += 8 * int64(len(r.T))
	return n
}

// Apply materialises the edited instance: base with every edit applied in
// order, copy-on-write. The result gets its own row headers for each
// section an edit names and shares the other section and every untouched
// row with base, so neither may be mutated — the contract every canonical
// instance in the pipeline already keeps. base
// must be in canonical form (mmlp.Canonical's output; every Record.In
// is): Apply finds rows by binary search and inserts each written row at
// its canonical position, so the result is canonical too and
// canonicalizing it is a check, not a copy.
//
// Edits address rows by content: Match is sorted and compared termwise
// against the base's rows, so the client does not need to know the
// canonical row order. Every row Apply writes is validated (the edit's own
// Validate, agents inside the base's agent set, no agent twice); the rows
// it keeps were validated with their base. All failures — unknown rows,
// agents outside the base's agent set, ambiguity-free semantic violations
// like deleting the last objective — wrap mmlp.ErrInvalid, so the serving
// layer answers them with a typed 400.
func Apply(base *mmlp.Instance, edits []mmlp.RowEdit) (*mmlp.Instance, error) {
	// Room for every edit to add a row, so no insertion copies the headers
	// again.
	out := &mmlp.Instance{NumAgents: base.NumAgents, Cons: base.Cons, Objs: base.Objs}
	names := func(cons bool) bool {
		return slices.ContainsFunc(edits, func(e mmlp.RowEdit) bool { return (e.Kind == mmlp.EditConstraint) == cons })
	}
	if names(true) {
		out.Cons = append(make([]mmlp.Constraint, 0, len(base.Cons)+len(edits)), base.Cons...)
	}
	if names(false) {
		out.Objs = append(make([]mmlp.Objective, 0, len(base.Objs)+len(edits)), base.Objs...)
	}
	for j := range edits {
		if err := applyOne(out, &edits[j]); err != nil {
			return nil, fmt.Errorf("edit %d: %w", j, err)
		}
	}
	if len(out.Objs) == 0 {
		return nil, fmt.Errorf("%w: edits removed every objective; a max-min LP needs at least one", mmlp.ErrInvalid)
	}
	return out, nil
}

func applyOne(in *mmlp.Instance, e *mmlp.RowEdit) error {
	if err := e.Validate(); err != nil {
		return err
	}
	for _, t := range e.Match {
		if t.Agent >= in.NumAgents {
			return fmt.Errorf("%w: match agent %d outside the base's %d agents", mmlp.ErrInvalid, t.Agent, in.NumAgents)
		}
	}
	for _, t := range e.Terms {
		if t.Agent >= in.NumAgents {
			return fmt.Errorf("%w: agent %d outside the base's %d agents (deltas cannot grow the agent set)",
				mmlp.ErrInvalid, t.Agent, in.NumAgents)
		}
	}
	terms := sortedTerms(e.Terms)
	if dup := firstDuplicateAgent(terms); dup >= 0 {
		return fmt.Errorf("%w: agent %d appears twice in terms", mmlp.ErrInvalid, dup)
	}
	if e.Kind == mmlp.EditConstraint {
		return edit(&in.Cons, e, terms)
	}
	return edit(&in.Objs, e, terms)
}

func termsOf[R mmlp.Row](r R) []mmlp.Term { return mmlp.Constraint(r).Terms }

// edit applies one validated edit to a canonical section, keeping it
// canonical. terms is the edit's new row content in canonical term order.
func edit[R mmlp.Row](rows *[]R, e *mmlp.RowEdit, terms []mmlp.Term) error {
	if e.Op == mmlp.EditAdd {
		i, _ := find(*rows, terms)
		*rows = slices.Insert(*rows, i, R(mmlp.Constraint{Terms: terms}))
		return nil
	}
	m := sortedTerms(e.Match)
	i, ok := find(*rows, m)
	if !ok {
		return fmt.Errorf("%w: no %s row matches %v", mmlp.ErrInvalid, e.Kind, m)
	}
	switch e.Op {
	case mmlp.EditRemove:
		*rows = slices.Delete(*rows, i, i+1)
		return nil
	case mmlp.EditReweight:
		if !sameAgentSet(termsOf((*rows)[i]), terms) {
			return fmt.Errorf("%w: reweight must keep the row's agent set (use remove+add to change membership)", mmlp.ErrInvalid)
		}
		move(*rows, i, terms)
		return nil
	}
	return fmt.Errorf("%w: unknown edit op %q", mmlp.ErrInvalid, e.Op) // unreachable after Validate
}

// find binary-searches a canonical section for a row with exactly these
// (canonically ordered) terms, returning its index, or the index a new
// row with them takes.
func find[R mmlp.Row](rows []R, terms []mmlp.Term) (int, bool) {
	return slices.BinarySearchFunc(rows, terms, func(r R, t []mmlp.Term) int {
		return mmlp.CompareRows(termsOf(r), t)
	})
}

// move replaces rows[i] with terms and restores canonical order by
// shifting only the rows between the old and the new position — none, for
// a reweight small enough to keep its rank.
func move[R mmlp.Row](rows []R, i int, terms []mmlp.Term) {
	for i > 0 && mmlp.CompareRows(termsOf(rows[i-1]), terms) > 0 {
		rows[i] = rows[i-1]
		i--
	}
	for i+1 < len(rows) && mmlp.CompareRows(termsOf(rows[i+1]), terms) < 0 {
		rows[i] = rows[i+1]
		i++
	}
	rows[i] = R(mmlp.Constraint{Terms: terms})
}

// sortedTerms returns a copy of ts in canonical term order.
func sortedTerms(ts []mmlp.Term) []mmlp.Term {
	out := append([]mmlp.Term(nil), ts...)
	slices.SortFunc(out, mmlp.CompareTerm)
	return out
}

func firstDuplicateAgent(sorted []mmlp.Term) int {
	for j := 1; j < len(sorted); j++ {
		if sorted[j].Agent == sorted[j-1].Agent {
			return sorted[j].Agent
		}
	}
	return -1
}

func sameAgentSet(a, b []mmlp.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if a[j].Agent != b[j].Agent {
			return false
		}
	}
	return true
}
