package delta_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/mmlp"
	"repro/internal/structured"
)

// pathBase builds the canonical 4-agent path instance used throughout:
//
//	agents  0 —c0— 1 —c1— 2 —c2— 3
//	objectives {0,1} and {2,3}
//
// It is already in structured form (every constraint couples two agents,
// every agent sits in exactly one objective), so the same instance drives
// both the Apply tests (via mmlp) and the Plan tests (via structured).
func pathBase() *mmlp.Instance {
	in := mmlp.New(4)
	in.AddConstraint(0, 1, 1, 1)
	in.AddConstraint(1, 1, 2, 1)
	in.AddConstraint(2, 1, 3, 1)
	in.AddObjective(0, 1, 1, 1)
	in.AddObjective(2, 1, 3, 1)
	return in.Canonical()
}

func terms(pairs ...float64) []mmlp.Term {
	ts := make([]mmlp.Term, 0, len(pairs)/2)
	for j := 0; j+1 < len(pairs); j += 2 {
		ts = append(ts, mmlp.Term{Agent: int(pairs[j]), Coef: pairs[j+1]})
	}
	return ts
}

func TestApplyAddSortsAndAppends(t *testing.T) {
	base := pathBase()
	// Terms deliberately out of canonical order: Apply must sort them.
	out, err := delta.Apply(base, []mmlp.RowEdit{
		{Op: mmlp.EditAdd, Kind: mmlp.EditConstraint, Terms: terms(3, 2, 0, 2)},
		{Op: mmlp.EditAdd, Kind: mmlp.EditObjective, Terms: terms(2, 1, 1, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Cons) != 4 || len(out.Objs) != 3 {
		t.Fatalf("got %d cons, %d objs, want 4 and 3", len(out.Cons), len(out.Objs))
	}
	// The added row lands at its canonical position: (0,2)-(3,2) sorts
	// after (0,1)-(1,1) and before (1,1)-(2,1).
	added := out.Cons[1].Terms
	if len(added) != 2 || added[0].Agent != 0 || added[1].Agent != 3 {
		t.Fatalf("added constraint terms not in canonical order: %v", added)
	}
	if len(base.Cons) != 3 || len(base.Objs) != 2 {
		t.Fatalf("base was modified: %d cons, %d objs", len(base.Cons), len(base.Objs))
	}
}

func TestApplyRemoveByContent(t *testing.T) {
	base := pathBase()
	// Match in reverse term order: content addressing is order-insensitive.
	out, err := delta.Apply(base, []mmlp.RowEdit{
		{Op: mmlp.EditRemove, Kind: mmlp.EditConstraint, Match: terms(2, 1, 1, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Cons) != 2 {
		t.Fatalf("got %d constraints, want 2", len(out.Cons))
	}
	for i, c := range out.Cons {
		if len(c.Terms) == 2 && c.Terms[0].Agent == 1 && c.Terms[1].Agent == 2 {
			t.Fatalf("row %d still matches the removed content", i)
		}
	}
}

func TestApplyReweight(t *testing.T) {
	base := pathBase()
	out, err := delta.Apply(base, []mmlp.RowEdit{
		{Op: mmlp.EditReweight, Kind: mmlp.EditConstraint, Match: terms(1, 1, 2, 1), Terms: terms(1, 4, 2, 0.5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var hit bool
	for _, c := range out.Cons {
		if c.Terms[0].Agent == 1 && c.Terms[1].Agent == 2 {
			hit = true
			if c.Terms[0].Coef != 4 || c.Terms[1].Coef != 0.5 {
				t.Fatalf("reweighted row has coefs (%v, %v), want (4, 0.5)", c.Terms[0].Coef, c.Terms[1].Coef)
			}
		}
	}
	if !hit {
		t.Fatal("reweighted row vanished")
	}
	// The base row (1,1)-(2,1) must still be there, untouched.
	var baseHit bool
	for _, c := range base.Cons {
		if c.Terms[0].Agent == 1 && c.Terms[1].Agent == 2 && c.Terms[0].Coef == 1 && c.Terms[1].Coef == 1 {
			baseHit = true
		}
	}
	if !baseHit {
		t.Fatal("base row was mutated by the reweight")
	}
}

func TestApplyErrors(t *testing.T) {
	cases := map[string]struct {
		edits   []mmlp.RowEdit
		wantSub string
	}{
		"unknown-row": {
			[]mmlp.RowEdit{{Op: mmlp.EditRemove, Kind: mmlp.EditConstraint, Match: terms(0, 1, 3, 1)}},
			"no constraint row matches",
		},
		"unknown-objective": {
			[]mmlp.RowEdit{{Op: mmlp.EditRemove, Kind: mmlp.EditObjective, Match: terms(0, 1, 2, 1)}},
			"no objective row matches",
		},
		"agent-set-growth": {
			[]mmlp.RowEdit{{Op: mmlp.EditAdd, Kind: mmlp.EditConstraint, Terms: terms(0, 1, 4, 1)}},
			"cannot grow the agent set",
		},
		"match-agent-out-of-range": {
			[]mmlp.RowEdit{{Op: mmlp.EditRemove, Kind: mmlp.EditConstraint, Match: terms(7, 1)}},
			"outside the base",
		},
		"duplicate-agent": {
			[]mmlp.RowEdit{{Op: mmlp.EditAdd, Kind: mmlp.EditConstraint, Terms: terms(2, 1, 2, 3)}},
			"appears twice",
		},
		"reweight-changes-agents": {
			[]mmlp.RowEdit{{Op: mmlp.EditReweight, Kind: mmlp.EditConstraint, Match: terms(1, 1, 2, 1), Terms: terms(1, 1, 3, 1)}},
			"must keep the row's agent set",
		},
		"bad-op": {
			[]mmlp.RowEdit{{Op: "replace", Kind: mmlp.EditConstraint, Terms: terms(0, 1)}},
			"unknown edit op",
		},
		"remove-every-objective": {
			[]mmlp.RowEdit{
				{Op: mmlp.EditRemove, Kind: mmlp.EditObjective, Match: terms(0, 1, 1, 1)},
				{Op: mmlp.EditRemove, Kind: mmlp.EditObjective, Match: terms(2, 1, 3, 1)},
			},
			"removed every objective",
		},
	}
	for name, c := range cases {
		_, err := delta.Apply(pathBase(), c.edits)
		if !errors.Is(err, mmlp.ErrInvalid) {
			t.Fatalf("%s: err = %v, want ErrInvalid", name, err)
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("%s: err %q does not mention %q", name, err, c.wantSub)
		}
	}
}

func TestApplyErrorNamesEditIndex(t *testing.T) {
	_, err := delta.Apply(pathBase(), []mmlp.RowEdit{
		{Op: mmlp.EditAdd, Kind: mmlp.EditConstraint, Terms: terms(0, 2, 1, 2)},
		{Op: mmlp.EditRemove, Kind: mmlp.EditConstraint, Match: terms(0, 9)},
	})
	if err == nil || !strings.HasPrefix(err.Error(), "edit 1:") {
		t.Fatalf("err = %v, want an %q prefix", err, "edit 1:")
	}
}

func TestApplyEmptyEditSetIsIdentity(t *testing.T) {
	base := pathBase()
	out, err := delta.Apply(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Cons) != len(base.Cons) || len(out.Objs) != len(base.Objs) {
		t.Fatalf("identity edit changed the shape: %d/%d cons, %d/%d objs",
			len(out.Cons), len(base.Cons), len(out.Objs), len(base.Objs))
	}
}

// sInst converts an instance already in structured form.
func sInst(t *testing.T, in *mmlp.Instance) *structured.Instance {
	t.Helper()
	s, err := structured.FromMMLP(in)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPlanNoChanges(t *testing.T) {
	sOld := sInst(t, pathBase())
	sNew := sInst(t, pathBase())
	dirty, err := delta.Plan(sOld, sNew, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 0 {
		t.Fatalf("dirty = %v, want empty", dirty)
	}
}

// TestPlanRadiusSemantics walks the path instance hop by hop: an edit to
// the middle constraint c1 = (1,2) reaches agents {1,2} at distance 1 and
// agents {0,3} at distance 3 (through c0/c2 or the objectives).
func TestPlanRadiusSemantics(t *testing.T) {
	edited, err := delta.Apply(pathBase(), []mmlp.RowEdit{
		{Op: mmlp.EditReweight, Kind: mmlp.EditConstraint, Match: terms(1, 1, 2, 1), Terms: terms(1, 4, 2, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	sOld, sNew := sInst(t, pathBase()), sInst(t, edited.Canonical())
	for radius, want := range map[int][]int{
		1: {1, 2},
		2: {1, 2}, // next agents sit at distance 3
		3: {0, 1, 2, 3},
	} {
		dirty, err := delta.Plan(sOld, sNew, radius)
		if err != nil {
			t.Fatal(err)
		}
		if len(dirty) != len(want) {
			t.Fatalf("radius %d: dirty = %v, want %v", radius, dirty, want)
		}
		for j := range want {
			if dirty[j] != want[j] {
				t.Fatalf("radius %d: dirty = %v, want %v", radius, dirty, want)
			}
		}
	}
}

// TestPlanTrailingRow: a row present in only one instance counts as
// changed at its position. The row is appended by hand (canonicalizing
// would re-sort the section and shift every position).
func TestPlanTrailingRow(t *testing.T) {
	edited := pathBase()
	edited.Cons = append(edited.Cons, mmlp.Constraint{Terms: terms(0, 2, 1, 2)})
	sOld, sNew := sInst(t, pathBase()), sInst(t, edited)
	dirty, err := delta.Plan(sOld, sNew, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 2 || dirty[0] != 0 || dirty[1] != 1 {
		t.Fatalf("dirty = %v, want [0 1]", dirty)
	}
}

// TestPlanUnionTopology: when an edit moves a row to a different agent
// pair, the ball must grow over BOTH endpoints' neighbourhoods — the old
// pair's values lose the row, the new pair's gain it.
func TestPlanUnionTopology(t *testing.T) {
	moved := pathBase()
	// Replace c1 = (1,2) with (1,3) by hand: positionally row 1 changes and
	// the union of old/new endpoints is {1, 2, 3}.
	for i := range moved.Cons {
		ts := moved.Cons[i].Terms
		if ts[0].Agent == 1 && ts[1].Agent == 2 {
			moved.Cons[i].Terms = terms(1, 1, 3, 1)
		}
	}
	sOld, sNew := sInst(t, pathBase()), sInst(t, moved.Canonical())
	dirty, err := delta.Plan(sOld, sNew, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 3 || dirty[0] != 1 || dirty[1] != 2 || dirty[2] != 3 {
		t.Fatalf("dirty = %v, want [1 2 3]", dirty)
	}
}

// TestPlanObjectiveMemberOrder: objective member order is positional
// kernel input (it perturbs summation order), so a pure reordering counts
// as a change.
func TestPlanObjectiveMemberOrder(t *testing.T) {
	reordered := pathBase()
	m := reordered.Objs[0].Terms
	m[0], m[1] = m[1], m[0]
	sOld, sNew := sInst(t, pathBase()), sInst(t, reordered) // no Canonical: keep the reorder
	dirty, err := delta.Plan(sOld, sNew, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 2 || dirty[0] != 0 || dirty[1] != 1 {
		t.Fatalf("dirty = %v, want [0 1]", dirty)
	}
}

func TestPlanAgentCountMismatch(t *testing.T) {
	bigger := mmlp.New(5)
	bigger.AddConstraint(0, 1, 1, 1)
	bigger.AddConstraint(1, 1, 2, 1)
	bigger.AddConstraint(2, 1, 3, 1)
	bigger.AddConstraint(3, 1, 4, 1)
	bigger.AddObjective(0, 1, 1, 1)
	bigger.AddObjective(2, 1, 3, 1, 4, 1)
	if _, err := delta.Plan(sInst(t, pathBase()), sInst(t, bigger.Canonical()), 3); err == nil {
		t.Fatal("agent-count mismatch was accepted")
	}
}

// fullT computes the kernel t-vector cold: RecomputeT with every agent
// dirty evaluates computeT for all of them, which is exactly what a full
// solve does.
func fullT(t *testing.T, s *structured.Instance, opt core.Options) []float64 {
	t.Helper()
	all := make([]int, s.N)
	for v := range all {
		all[v] = v
	}
	tv, err := core.RecomputeT(s, make([]float64, s.N), all, opt)
	if err != nil {
		t.Fatal(err)
	}
	return tv
}

// TestPlanRadiusRegression pins the exact locality radius: t_u reads the
// radius-(4r+3) ball of u, no less. On the path instance with R=2 (r=0,
// TRadius(0)=3), agent 0 sits at bipartite distance exactly 3 from the
// edited constraint c1 — and its t genuinely changes under the edit. A
// plan one hop short misses agent 0, and the resulting splice is wrong;
// the exact plan reproduces the cold kernel bit for bit. If Plan (or
// TRadius) ever under-counts by one hop, this test fails.
func TestPlanRadiusRegression(t *testing.T) {
	edited, err := delta.Apply(pathBase(), []mmlp.RowEdit{
		{Op: mmlp.EditReweight, Kind: mmlp.EditConstraint, Match: terms(1, 1, 2, 1), Terms: terms(1, 4, 2, 0.25)},
	})
	if err != nil {
		t.Fatal(err)
	}
	sOld, sNew := sInst(t, pathBase()), sInst(t, edited.Canonical())
	opt := core.Options{R: 2, Workers: 1}
	r := opt.R - 2
	tOld, tNew := fullT(t, sOld, opt), fullT(t, sNew, opt)

	if tOld[0] == tNew[0] {
		t.Fatalf("t[0] did not change under the edit (%v); the regression construction is broken", tOld[0])
	}

	exact, err := delta.Plan(sOld, sNew, core.TRadius(r))
	if err != nil {
		t.Fatal(err)
	}
	short, err := delta.Plan(sOld, sNew, core.TRadius(r)-1)
	if err != nil {
		t.Fatal(err)
	}
	has := func(dirty []int, v int) bool {
		for _, d := range dirty {
			if d == v {
				return true
			}
		}
		return false
	}
	if !has(exact, 0) {
		t.Fatalf("exact plan %v misses agent 0 at distance exactly 4r+3", exact)
	}
	if has(short, 0) {
		t.Fatalf("one-hop-short plan %v contains agent 0; the distance-3 construction is broken", short)
	}

	spliceExact, err := core.RecomputeT(sNew, tOld, exact, opt)
	if err != nil {
		t.Fatal(err)
	}
	for v := range tNew {
		if spliceExact[v] != tNew[v] {
			t.Fatalf("exact splice diverges at agent %d: %v vs cold %v", v, spliceExact[v], tNew[v])
		}
	}
	spliceShort, err := core.RecomputeT(sNew, tOld, short, opt)
	if err != nil {
		t.Fatal(err)
	}
	if spliceShort[0] == tNew[0] {
		t.Fatal("one-hop-short splice still matched the cold kernel; the radius bound is not tight on this instance")
	}
}
