package core

import (
	"math"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/simplex"
	"repro/internal/structured"
)

// mustStructured converts an instance to the compact structured form.
func mustStructured(t *testing.T, in *mmlp.Instance) *structured.Instance {
	t.Helper()
	s, err := structured.FromMMLP(in)
	if err != nil {
		t.Fatalf("FromMMLP: %v", err)
	}
	return s
}

// twoAgents is the minimal structured instance: one objective {0,1}, one
// constraint x0 + x1 ≤ 1. Its optimum is 1.
func twoAgents() *mmlp.Instance {
	in := mmlp.New(2)
	in.AddConstraint(0, 1, 1, 1)
	in.AddObjective(0, 1, 1, 1)
	return in
}

func TestHandComputedTwoAgentsR2(t *testing.T) {
	// Hand computation (see also §5.2): with R=2 (r=0), t_u = 2 for both
	// agents, s = 2, g+_0 = cap = 1, g−_0 = max(0, 2−1) = 1, and
	// x_v = (1+1)/(2·2) = 1/2 — which is optimal here.
	s := mustStructured(t, twoAgents())
	tr, err := Solve(s, Options{R: 2})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		if math.Abs(tr.T[u]-2) > 1e-9 {
			t.Fatalf("t[%d] = %v, want 2", u, tr.T[u])
		}
	}
	for v := 0; v < 2; v++ {
		if math.Abs(tr.X[v]-0.5) > 1e-9 {
			t.Fatalf("x[%d] = %v, want 0.5", v, tr.X[v])
		}
	}
	if math.Abs(s.Utility(tr.X)-1) > 1e-9 {
		t.Fatalf("utility = %v, want 1", s.Utility(tr.X))
	}
}

func TestHandComputedTwoAgentsR3(t *testing.T) {
	// With R=3 (r=1): t_u = 3/2, g+_0 = 1, g−_0 = 1/2, g+_1 = 1/2,
	// g−_1 = 1, x_v = (1 + 1/2 + 1/2 + 1)/6 = 1/2.
	s := mustStructured(t, twoAgents())
	tr, err := Solve(s, Options{R: 3})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		if math.Abs(tr.T[u]-1.5) > 1e-9 {
			t.Fatalf("t[%d] = %v, want 1.5", u, tr.T[u])
		}
	}
	if math.Abs(tr.GMinus[0][0]-0.5) > 1e-9 || math.Abs(tr.GPlus[1][0]-0.5) > 1e-9 || math.Abs(tr.GMinus[1][0]-1) > 1e-9 {
		t.Fatalf("g values wrong: g-0=%v g+1=%v g-1=%v", tr.GMinus[0][0], tr.GPlus[1][0], tr.GMinus[1][0])
	}
	if math.Abs(tr.X[0]-0.5) > 1e-9 {
		t.Fatalf("x = %v, want 0.5", tr.X[0])
	}
}

func TestOptionsValidation(t *testing.T) {
	s := mustStructured(t, twoAgents())
	if _, err := Solve(s, Options{R: 1}); err == nil {
		t.Fatal("R=1 accepted")
	}
	if _, err := Solve(s, Options{R: 3, Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := Solve(s, Options{}); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

// structuredOpt computes the exact optimum of a structured instance.
func structuredOpt(t *testing.T, in *mmlp.Instance) float64 {
	t.Helper()
	r := simplex.SolveMaxMin(in)
	if r.Status != simplex.Optimal {
		t.Fatalf("simplex: %v", r.Status)
	}
	return r.Value
}

// ratioBound is the structured-case guarantee 2(1−1/ΔK)(1+1/(R−1)) of §6.3.
func ratioBound(dK, R int) float64 {
	return 2 * (1 - 1/float64(dK)) * (1 + 1/float64(R-1))
}

func TestSolveFeasibilityAndRatioOnRandomStructured(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		in := gen.RandomStructured(gen.StructuredConfig{Objectives: 4, MaxDegK: 4, ExtraCons: 3}, seed)
		s := mustStructured(t, in)
		opt := structuredOpt(t, in)
		for _, R := range []int{2, 3, 4} {
			tr, err := Solve(s, Options{R: R})
			if err != nil {
				t.Fatal(err)
			}
			// Lemma 11: x is feasible.
			if v := s.MaxViolation(tr.X); v > 1e-9 {
				t.Fatalf("seed %d R %d: violation %v", seed, R, v)
			}
			// Lemma 2: every t_u (and hence the upper bound) dominates opt.
			if tr.UpperBound < opt-1e-7 {
				t.Fatalf("seed %d R %d: upper bound %v < opt %v", seed, R, tr.UpperBound, opt)
			}
			// Lemma 12 + §6.3: the approximation guarantee.
			util := s.Utility(tr.X)
			bound := ratioBound(s.DegreeK(), R)
			if util*bound < opt-1e-7 {
				t.Fatalf("seed %d R %d: utility %v × bound %v < opt %v (ratio %v)",
					seed, R, util, bound, opt, opt/util)
			}
		}
	}
}

func TestLemmas5to7Invariants(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		in := gen.RandomStructured(gen.StructuredConfig{Objectives: 5, MaxDegK: 3, ExtraCons: 4}, seed)
		s := mustStructured(t, in)
		tr, err := Solve(s, Options{R: 4})
		if err != nil {
			t.Fatal(err)
		}
		r := tr.SmallR
		for v := 0; v < s.N; v++ {
			// Lemma 5: g+_{v,r} ≥ 0 and g−_{v,r} ≤ cap_v.
			if tr.GPlus[r][v] < -1e-9 {
				t.Fatalf("seed %d: g+[r][%d] = %v < 0", seed, v, tr.GPlus[r][v])
			}
			if tr.GMinus[r][v] > s.Caps[v]+1e-9 {
				t.Fatalf("seed %d: g−[r][%d] = %v > cap %v", seed, v, tr.GMinus[r][v], s.Caps[v])
			}
			for d := 1; d <= r; d++ {
				// Lemma 6: g−_{v,d−1} ≤ g−_{v,d}, g+_{v,d} ≤ g+_{v,d−1}.
				if tr.GMinus[d-1][v] > tr.GMinus[d][v]+1e-9 {
					t.Fatalf("seed %d: g− not monotone at v=%d d=%d", seed, v, d)
				}
				if tr.GPlus[d][v] > tr.GPlus[d-1][v]+1e-9 {
					t.Fatalf("seed %d: g+ not antitone at v=%d d=%d", seed, v, d)
				}
			}
			for d := 0; d <= r; d++ {
				// Lemma 7: g+_{v,d} ≥ 0.
				if tr.GPlus[d][v] < -1e-9 {
					t.Fatalf("seed %d: g+[%d][%d] = %v < 0", seed, d, v, tr.GPlus[d][v])
				}
			}
		}
	}
}

func TestSmoothingEqualsBallMinimum(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		in := gen.RandomStructured(gen.StructuredConfig{Objectives: 6, MaxDegK: 3, ExtraCons: 2}, seed)
		s := mustStructured(t, in)
		for _, R := range []int{2, 3, 4} {
			tr, err := Solve(s, Options{R: R})
			if err != nil {
				t.Fatal(err)
			}
			g := bipartite.FromInstance(in)
			r := tr.SmallR
			for v := 0; v < s.N; v++ {
				want := math.Inf(1)
				for _, u := range g.AgentsWithin(v, 4*r+2) {
					if tr.T[u] < want {
						want = tr.T[u]
					}
				}
				if math.Abs(tr.S[v]-want) > 1e-12 {
					t.Fatalf("seed %d R %d: s[%d] = %v, brute force %v", seed, R, v, tr.S[v], want)
				}
			}
		}
	}
}

func TestTuMatchesAuLPOptimum(t *testing.T) {
	// E10: the memoised binary search equals the LP optimum of the
	// explicitly unfolded tree (Lemma 3).
	for seed := int64(0); seed < 6; seed++ {
		in := gen.RandomStructured(gen.StructuredConfig{Objectives: 3, MaxDegK: 3, ExtraCons: 1}, seed)
		s := mustStructured(t, in)
		for _, R := range []int{2, 3} {
			r := R - 2
			tr, err := Solve(s, Options{R: R})
			if err != nil {
				t.Fatal(err)
			}
			for u := int32(0); u < int32(s.N); u++ {
				lp, _ := BuildAuLP(s, u, r)
				res := simplex.SolveMaxMin(lp)
				if res.Status != simplex.Optimal {
					t.Fatalf("Au LP not optimal: %v", res.Status)
				}
				if math.Abs(res.Value-tr.T[u]) > 1e-6*math.Max(1, res.Value) {
					t.Fatalf("seed %d R %d u %d: binary search %v vs LP %v",
						seed, R, u, tr.T[u], res.Value)
				}
			}
		}
	}
}

func TestAuUpperBoundsGlobalOptimum(t *testing.T) {
	// Lemma 2: t_u ≥ opt(G) for every u.
	for seed := int64(0); seed < 8; seed++ {
		in := gen.RandomStructured(gen.StructuredConfig{Objectives: 4, MaxDegK: 3, ExtraCons: 3}, seed)
		s := mustStructured(t, in)
		opt := structuredOpt(t, in)
		tr, err := Solve(s, Options{R: 3})
		if err != nil {
			t.Fatal(err)
		}
		for u, tu := range tr.T {
			if tu < opt-1e-7 {
				t.Fatalf("seed %d: t[%d] = %v < opt %v", seed, u, tu, opt)
			}
		}
	}
}

func TestAuStructureLemma1(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		in := gen.RandomStructured(gen.StructuredConfig{Objectives: 3, MaxDegK: 3, ExtraCons: 1}, seed)
		s := mustStructured(t, in)
		for _, r := range []int{0, 1} {
			for u := int32(0); u < int32(s.N); u++ {
				_, st := BuildAuLP(s, u, r)
				if err := CheckAuStructure(st, r); err != nil {
					t.Fatalf("seed %d r %d u %d: %v", seed, r, u, err)
				}
				if st.LeafCons == 0 {
					t.Fatal("tree has no leaves")
				}
			}
		}
	}
}

func TestAnonymityRelabellingInvariance(t *testing.T) {
	// §3 remark 6: the algorithm may not depend on agent identifiers.
	// Reversing all agent indices must permute the output accordingly.
	in := gen.RandomStructured(gen.StructuredConfig{Objectives: 4, MaxDegK: 3, ExtraCons: 2}, 42)
	n := in.NumAgents
	relabel := func(v int) int { return n - 1 - v }
	perm := mmlp.New(n)
	for _, c := range in.Cons {
		perm.AddConstraint(float64(relabel(c.Terms[0].Agent)), c.Terms[0].Coef,
			float64(relabel(c.Terms[1].Agent)), c.Terms[1].Coef)
	}
	for _, o := range in.Objs {
		pairs := []float64{}
		for _, tm := range o.Terms {
			pairs = append(pairs, float64(relabel(tm.Agent)), 1)
		}
		perm.AddObjective(pairs...)
	}
	s1 := mustStructured(t, in)
	s2 := mustStructured(t, perm)
	tr1, err1 := Solve(s1, Options{R: 3})
	tr2, err2 := Solve(s2, Options{R: 3})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for v := 0; v < n; v++ {
		if math.Abs(tr1.X[v]-tr2.X[relabel(v)]) > 1e-9 {
			t.Fatalf("x[%d] = %v but relabelled %v", v, tr1.X[v], tr2.X[relabel(v)])
		}
	}
}

func TestTriNecklaceSymmetry(t *testing.T) {
	// On the fully symmetric adversarial cycle all agents of the same band
	// must receive identical values.
	in := gen.TriNecklace(8)
	s := mustStructured(t, in)
	tr, err := Solve(s, Options{R: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < 8; k++ {
		for band := 0; band < 3; band++ {
			if math.Abs(tr.X[3*k+band]-tr.X[band]) > 1e-9 {
				t.Fatalf("band %d differs at k=%d: %v vs %v", band, k, tr.X[3*k+band], tr.X[band])
			}
		}
	}
	if v := s.MaxViolation(tr.X); v > 1e-9 {
		t.Fatalf("violation %v", v)
	}
}

func TestLayeredNecklaceShiftLemmas(t *testing.T) {
	// Lemmas 9 and 10 on a family with a consistent (mod 4R) layering.
	R := 3
	m := 2 * R // R | m keeps the cycle layering consistent
	in, agentLayer, objLayer := gen.LayeredNecklace(m)
	s := mustStructured(t, in)
	tr, err := Solve(s, Options{R: R})
	if err != nil {
		t.Fatal(err)
	}
	lay := &Layering{AgentLayer: agentLayer, ObjLayer: objLayer}
	minS := func(k int) float64 {
		v := math.Inf(1)
		for _, a := range s.Objs[k] {
			if tr.S[a] < v {
				v = tr.S[a]
			}
		}
		return v
	}
	for j := 0; j < R; j++ {
		y := ShiftSolution(tr, lay, j)
		// Lemma 9 feasibility.
		if v := s.MaxViolation(y); v > 1e-9 {
			t.Fatalf("j=%d: y(j) violation %v", j, v)
		}
		for k := range s.Objs {
			val := 0.0
			for _, a := range s.Objs[k] {
				val += y[a]
			}
			if modn(lay.ObjLayer[k]-(4*j-4), 4*R) == 0 {
				if val != 0 {
					t.Fatalf("j=%d k=%d: passive objective has value %v", j, k, val)
				}
			} else if val < minS(k)-1e-9 {
				t.Fatalf("j=%d k=%d: ω_k(y(j)) = %v < min s = %v", j, k, val, minS(k))
			}
		}
	}
	// Lemma 10: the shift average is feasible with ω_k ≥ (1−1/R)·min s.
	yAvg := AverageShift(tr, lay)
	if v := s.MaxViolation(yAvg); v > 1e-9 {
		t.Fatalf("average violation %v", v)
	}
	for k := range s.Objs {
		val := 0.0
		for _, a := range s.Objs[k] {
			val += yAvg[a]
		}
		if want := (1 - 1/float64(R)) * minS(k); val < want-1e-9 {
			t.Fatalf("k=%d: ω_k(y) = %v < %v", k, val, want)
		}
	}
	// Consistency: the average of y(j) equals AverageShift.
	for v := 0; v < s.N; v++ {
		sum := 0.0
		for j := 0; j < R; j++ {
			sum += ShiftSolution(tr, lay, j)[v]
		}
		if math.Abs(sum/float64(R)-yAvg[v]) > 1e-12 {
			t.Fatalf("average mismatch at %d", v)
		}
	}
}

func TestFigure1LevelsCoincideWithLayers(t *testing.T) {
	// Figure 1's caption: if u is an up-agent then the levels in A_u
	// coincide with the layers (shifted so u sits at level −1). On the
	// layered necklace: level(occurrence of w) ≡ layer(w) − layer(u) − 1
	// … taken mod 4m (the cycle's full layer period).
	R := 3
	m := 2 * R
	in, agentLayer, _ := gen.LayeredNecklace(m)
	s := mustStructured(t, in)
	u := int32(0) // U_0, an up-agent at layer −1
	_, st := BuildAuLP(s, u, R-2)
	period := 4 * m
	for _, occ := range st.Occs {
		want := modn(agentLayer[occ.Agent]-agentLayer[u]-1, period)
		got := modn(occ.Level, period)
		// Levels of agents are −1, 1, 3, …, 4r+1 — far below the period, so
		// the mod is only needed for the negative root level.
		if got != want {
			t.Fatalf("occurrence of agent %d: level %d (mod %d = %d), want %d",
				occ.Agent, occ.Level, period, got, want)
		}
	}
}

func TestLayersDecompose(t *testing.T) {
	// decompose must reproduce layer = 4(Rc+j)+4d+e for all classes.
	R := 4
	for j := 0; j < R; j++ {
		for c := -2; c <= 2; c++ {
			for d := 0; d < R; d++ {
				for _, e := range []int{-1, 1} {
					layer := 4*(R*c+j) + 4*d + e
					gd, ge := decompose(layer, R, j)
					if gd != d || ge != e {
						t.Fatalf("decompose(%d, R=%d, j=%d) = (%d,%d), want (%d,%d)",
							layer, R, j, gd, ge, d, e)
					}
				}
			}
		}
	}
}

func TestDecomposePanicsOnEvenLayer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for even layer")
		}
	}()
	decompose(4, 3, 0)
}

func TestDisconnectedComponentsSolveIndependently(t *testing.T) {
	// Two disjoint copies of the two-agent instance: the solution must be
	// the same as solving one copy, duplicated.
	in := mmlp.New(4)
	in.AddConstraint(0, 1, 1, 1)
	in.AddObjective(0, 1, 1, 1)
	in.AddConstraint(2, 1, 3, 1)
	in.AddObjective(2, 1, 3, 1)
	s := mustStructured(t, in)
	tr, err := Solve(s, Options{R: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if math.Abs(tr.X[v]-0.5) > 1e-9 {
			t.Fatalf("x[%d] = %v, want 0.5", v, tr.X[v])
		}
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	in := gen.RandomStructured(gen.StructuredConfig{Objectives: 5, MaxDegK: 3, ExtraCons: 3}, 7)
	s := mustStructured(t, in)
	tr1, _ := Solve(s, Options{R: 3, Workers: 1})
	tr4, _ := Solve(s, Options{R: 3, Workers: 4})
	for v := range tr1.X {
		if tr1.X[v] != tr4.X[v] {
			t.Fatalf("worker count changed output at %d: %v vs %v", v, tr1.X[v], tr4.X[v])
		}
	}
}
