package expt

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/structured"
)

// E10Ablation shows that the design elements of §5 are load-bearing: the
// smoothing step and the up/down averaging each protect feasibility, and
// the binary-search depth trades utility for work.
func E10Ablation(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "ablations of the §5 design choices (structured instances, R=3)",
		Headers: []string{"variant", "seeds", "worst violation", "mean utility / full",
			"feasible everywhere"},
		Notes: []string{
			"no-smoothing drops s_v = min t (§5.3); single-role drops the averaging of (18)",
			"violations > 0 confirm the corresponding lemma chain is necessary, not conservative",
		},
	}
	seeds := 20
	objs := 10
	if scale == Quick {
		seeds, objs = 6, 6
	}
	type variant struct {
		name string
		ab   core.Ablation
	}
	variants := []variant{
		{"full algorithm", core.Ablation{}},
		{"no smoothing", core.Ablation{NoSmoothing: true}},
		{"all-down role", core.Ablation{Role: core.RoleDown}},
		{"all-up role", core.Ablation{Role: core.RoleUp}},
	}
	fullUtil := make([]float64, seeds)
	for _, vr := range variants {
		worstViol := 0.0
		utilSum, fullSum := 0.0, 0.0
		feasible := true
		for seed := 0; seed < seeds; seed++ {
			in := gen.RandomStructured(gen.StructuredConfig{Objectives: objs, MaxDegK: 3, ExtraCons: objs / 2}, int64(seed))
			s, err := structured.FromMMLP(in)
			if err != nil {
				return nil, err
			}
			tr, err := core.SolveAblated(s, core.Options{R: 3}, vr.ab)
			if err != nil {
				return nil, err
			}
			if vr.name == "full algorithm" {
				fullUtil[seed] = s.Utility(tr.X)
			}
			if v := s.MaxViolation(tr.X); v > worstViol {
				worstViol = v
			}
			if s.MaxViolation(tr.X) > 1e-9 {
				feasible = false
			}
			utilSum += s.Utility(tr.X)
			fullSum += fullUtil[seed]
		}
		rel := utilSum / fullSum
		t.AddRow(vr.name, seeds, worstViol, rel, feasible)
		if vr.name == "full algorithm" && !feasible {
			return t, fmt.Errorf("E10: the full algorithm must be feasible")
		}
	}
	return t, nil
}

// E11Dynamic measures the constant-time-update property of §1.3: after a
// single coefficient change on a large cycle, the incremental update — the
// sequence a spliced delta runs in the engine: one delta.Scratch.Plan BFS,
// the dirty t-stage and the ball-local tail — recomputes a constant number
// of t-values and finishes much faster than a full solve, with
// bit-identical output.
func E11Dynamic(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "dynamic updates after one coefficient change (tri-necklace, R=3)",
		Headers: []string{"agents", "recomputed t", "full solve ms", "update ms", "speedup", "output identical"},
		Notes:   []string{"recomputed-t is constant in the instance size: the radius-(4r+3) ball of the change"},
	}
	sizes := []int{200, 400, 800}
	if scale == Quick {
		sizes = []int{100, 200}
	}
	opt := core.Options{R: 3}
	var ps delta.Scratch
	var sc core.Scratch
	for _, m := range sizes {
		in := gen.TriNecklace(m)
		s1, err := structured.FromMMLP(in)
		if err != nil {
			return nil, err
		}
		mod := in.Clone()
		mod.Cons[0].Terms[0].Coef = 2
		s2, err := structured.FromMMLP(mod)
		if err != nil {
			return nil, err
		}
		old, err := core.Solve(s1, opt)
		if err != nil {
			return nil, err
		}
		base := old.Own()
		start := time.Now()
		full, err := core.Solve(s2, opt)
		if err != nil {
			return nil, err
		}
		fullMS := float64(time.Since(start).Microseconds()) / 1000
		// The timed update runs on scratches already sized for the
		// instance, as a serving worker's are in steady state.
		if _, _, err := incrementalUpdate(s1, s2, base, opt, &ps, &sc); err != nil {
			return nil, err
		}
		start = time.Now()
		inc, dirty, err := incrementalUpdate(s1, s2, base, opt, &ps, &sc)
		if err != nil {
			return nil, err
		}
		incMS := float64(time.Since(start).Microseconds()) / 1000
		same := true
		for v := range full.X {
			if full.X[v] != inc.X[v] {
				same = false
			}
		}
		t.AddRow(3*m, dirty, fmt.Sprintf("%.2f", fullMS), fmt.Sprintf("%.2f", incMS),
			fmt.Sprintf("%.1fx", fullMS/incMS), same)
		if !same {
			return t, fmt.Errorf("E11: incremental update diverged from full recompute")
		}
	}
	return t, nil
}

// incrementalUpdate re-solves sNew from base, the owned trace (Trace.Own)
// of sOld, on the caller's scratches: ps's Plan yields the dirty t-set and
// the output ball, the single-worker t-stage re-prices the dirty agents,
// and the tail re-derives the ball. It returns the trace, which aliases sc,
// and the number of t-values recomputed.
func incrementalUpdate(sOld, sNew *structured.Instance, base *core.Trace, opt core.Options, ps *delta.Scratch, sc *core.Scratch) (*core.Trace, int, error) {
	r := base.SmallR
	dirty, ball, err := ps.Plan(sOld, sNew, core.TRadius(r), core.OutputRadius(r))
	if err != nil {
		return nil, 0, err
	}
	opt.Workers = 1
	tv, err := sc.TStage(nil, sNew, opt, dirty, base.T)
	if err != nil {
		return nil, 0, err
	}
	tr, err := sc.Tail(sNew, opt, tv, ball, base)
	return tr, len(dirty), err
}
