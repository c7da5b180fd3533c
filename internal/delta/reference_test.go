package delta_test

import (
	"fmt"
	"slices"

	"repro/internal/mmlp"
)

// referenceApply is the plain edit application the Apply tests and
// FuzzDeltaApply compare against: a deep clone of base, each edit applied
// by a linear scan with written rows appended, then a full re-Validate and
// canonicalization of the result.
func referenceApply(base *mmlp.Instance, edits []mmlp.RowEdit) (*mmlp.Instance, error) {
	out := base.Clone()
	for j := range edits {
		if err := refApplyOne(out, &edits[j]); err != nil {
			return nil, fmt.Errorf("edit %d: %w", j, err)
		}
	}
	if len(out.Objs) == 0 {
		return nil, fmt.Errorf("%w: edits removed every objective; a max-min LP needs at least one", mmlp.ErrInvalid)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out.Canonical(), nil
}

func refApplyOne(in *mmlp.Instance, e *mmlp.RowEdit) error {
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
	terms := refSorted(e.Terms)
	for j := 1; j < len(terms); j++ {
		if terms[j].Agent == terms[j-1].Agent {
			return fmt.Errorf("%w: agent %d appears twice in terms", mmlp.ErrInvalid, terms[j].Agent)
		}
	}
	switch e.Op {
	case mmlp.EditAdd:
		refAddRow(in, e.Kind, terms)
		return nil
	case mmlp.EditRemove:
		_, err := refTakeRow(in, e.Kind, e.Match)
		return err
	case mmlp.EditReweight:
		old, err := refTakeRow(in, e.Kind, e.Match)
		if err != nil {
			return err
		}
		same := len(old) == len(terms)
		for j := 0; same && j < len(old); j++ {
			same = old[j].Agent == terms[j].Agent
		}
		if !same {
			return fmt.Errorf("%w: reweight must keep the row's agent set (use remove+add to change membership)", mmlp.ErrInvalid)
		}
		refAddRow(in, e.Kind, terms)
		return nil
	}
	return fmt.Errorf("%w: unknown edit op %q", mmlp.ErrInvalid, e.Op)
}

func refSorted(ts []mmlp.Term) []mmlp.Term {
	out := append([]mmlp.Term(nil), ts...)
	slices.SortFunc(out, mmlp.CompareTerm)
	return out
}

func refAddRow(in *mmlp.Instance, kind string, terms []mmlp.Term) {
	if kind == mmlp.EditConstraint {
		in.Cons = append(in.Cons, mmlp.Constraint{Terms: terms})
	} else {
		in.Objs = append(in.Objs, mmlp.Objective{Terms: terms})
	}
}

// refTakeRow removes the first row whose content equals match, in the
// section's current order.
func refTakeRow(in *mmlp.Instance, kind string, match []mmlp.Term) ([]mmlp.Term, error) {
	m := refSorted(match)
	equal := func(ts []mmlp.Term) bool {
		return slices.EqualFunc(ts, m, func(a, b mmlp.Term) bool { return mmlp.CompareTerm(a, b) == 0 })
	}
	if kind == mmlp.EditConstraint {
		for i := range in.Cons {
			if equal(in.Cons[i].Terms) {
				terms := in.Cons[i].Terms
				in.Cons = slices.Delete(in.Cons, i, i+1)
				return terms, nil
			}
		}
		return nil, fmt.Errorf("%w: no constraint row matches %v", mmlp.ErrInvalid, m)
	}
	for k := range in.Objs {
		if equal(in.Objs[k].Terms) {
			terms := in.Objs[k].Terms
			in.Objs = slices.Delete(in.Objs, k, k+1)
			return terms, nil
		}
	}
	return nil, fmt.Errorf("%w: no objective row matches %v", mmlp.ErrInvalid, m)
}
