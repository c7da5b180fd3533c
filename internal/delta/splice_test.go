package delta_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/structured"
)

// perturbedNecklace returns the structured forms of a tri-necklace before
// and after one constraint coefficient changes at objective band k0.
func perturbedNecklace(t *testing.T, m, k0 int) (*structured.Instance, *structured.Instance) {
	t.Helper()
	in := gen.TriNecklace(m)
	mod := in.Clone()
	mod.Cons[2*k0].Terms[0].Coef = 2 // R_k0 side of {R_k0, L_k0+1}
	return sInst(t, in), sInst(t, mod)
}

// splice re-solves sNew incrementally from old, the trace of sOld: Plan
// finds the dirty ball, the t-stage re-prices it and the tail re-runs on
// the merged t-vector. It returns the trace and the dirty set.
func splice(t *testing.T, sOld, sNew *structured.Instance, old *core.Trace, opt core.Options) (*core.Trace, []int) {
	t.Helper()
	dirty, err := delta.Plan(sOld, sNew, core.TRadius(opt.R-2))
	if err != nil {
		t.Fatal(err)
	}
	sc := new(core.Scratch)
	tv, err := sc.TStage(nil, sNew, opt, dirty, old.T)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sc.Tail(sNew, opt, tv, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr, dirty
}

// TestSpliceMatchesFullRecompute: an incremental re-solve driven by Plan
// reproduces a full solve of the edited instance bit for bit, on T and X,
// while re-pricing only a strict subset of the agents.
func TestSpliceMatchesFullRecompute(t *testing.T) {
	for _, R := range []int{2, 3, 4} {
		opt := core.Options{R: R}
		sOld, sNew := perturbedNecklace(t, 40, 7)
		old, err := core.Solve(sOld, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, dirty := splice(t, sOld, sNew, old, opt)
		want, err := core.Solve(sNew, opt)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < sNew.N; v++ {
			if math.Float64bits(got.T[v]) != math.Float64bits(want.T[v]) {
				t.Fatalf("R=%d: t[%d] incremental %v full %v", R, v, got.T[v], want.T[v])
			}
			if math.Float64bits(got.X[v]) != math.Float64bits(want.X[v]) {
				t.Fatalf("R=%d: x[%d] incremental %v full %v", R, v, got.X[v], want.X[v])
			}
		}
		if len(dirty) == 0 || len(dirty) >= sNew.N {
			t.Fatalf("R=%d: dirty %d of %d agents, want a non-empty strict subset", R, len(dirty), sNew.N)
		}
	}
}

// TestSpliceLocalityFarOutputsUnchanged is §1.3 at the output level: a
// change can only influence outputs within OutputRadius, so on a large
// necklace the agents on the far side keep bit-identical t and x.
func TestSpliceLocalityFarOutputsUnchanged(t *testing.T) {
	const m = 60
	opt := core.Options{R: 3}
	sOld, sNew := perturbedNecklace(t, m, 0)
	old, err := core.Solve(sOld, opt)
	if err != nil {
		t.Fatal(err)
	}
	updated, _ := splice(t, sOld, sNew, old, opt)
	// The far side of the cycle: objective band m/2. Graph distance from
	// the modified constraint is ≈ 2·(m/2) edges ≫ OutputRadius(1) = 19.
	far := 3 * (m / 2)
	for v := far; v < far+3; v++ {
		if updated.X[v] != old.X[v] {
			t.Fatalf("far agent %d output changed: %v → %v", v, old.X[v], updated.X[v])
		}
		if updated.T[v] != old.T[v] {
			t.Fatalf("far agent %d t changed", v)
		}
	}
	// Near the change, outputs do move (the perturbation matters).
	moved := false
	for v := 0; v < 6; v++ {
		if updated.X[v] != old.X[v] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("perturbation had no effect near the change")
	}
}

// TestSpliceNoChangeRecomputesNothing: re-solving an instance against
// itself plans an empty dirty set and reproduces the old trace exactly.
func TestSpliceNoChangeRecomputesNothing(t *testing.T) {
	opt := core.Options{R: 3}
	s1, s2 := sInst(t, gen.TriNecklace(8)), sInst(t, gen.TriNecklace(8))
	old, err := core.Solve(s1, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, dirty := splice(t, s1, s2, old, opt)
	if len(dirty) != 0 {
		t.Fatalf("recomputed %d t-values for a no-op change", len(dirty))
	}
	for v := range got.X {
		if got.X[v] != old.X[v] {
			t.Fatalf("no-op update changed x[%d]", v)
		}
	}
}
