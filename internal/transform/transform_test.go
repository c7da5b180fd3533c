package transform

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mmlp"
	"repro/internal/simplex"
	"repro/internal/structured"
)

// randGeneral builds a random strictly valid instance with singleton and
// wide constraints, multi-objective agents and singleton objectives, i.e.
// everything the §4 pipeline has to clean up.
func randGeneral(rng *rand.Rand) *mmlp.Instance {
	n := 2 + rng.Intn(5)
	in := mmlp.New(n)
	// Guarantee strict validity: a private constraint and objective per agent.
	for v := 0; v < n; v++ {
		in.AddConstraint(float64(v), 0.5+rng.Float64())
		in.AddObjective(float64(v), 0.5+rng.Float64())
	}
	// Wide constraints.
	for r := 0; r < rng.Intn(3); r++ {
		size := 2 + rng.Intn(3)
		if size > n {
			size = n
		}
		perm := rng.Perm(n)[:size]
		pairs := make([]float64, 0, 2*size)
		for _, v := range perm {
			pairs = append(pairs, float64(v), 0.5+rng.Float64())
		}
		in.AddConstraint(pairs...)
	}
	// Multi-agent objectives (creating multi-objective agents).
	for r := 0; r < rng.Intn(3); r++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		in.AddObjective(float64(a), 0.5+rng.Float64(), float64(b), 0.5+rng.Float64())
	}
	return in
}

func optOf(t *testing.T, in *mmlp.Instance) float64 {
	t.Helper()
	r := simplex.SolveMaxMin(in)
	if r.Status != simplex.Optimal {
		t.Fatalf("simplex status %v", r.Status)
	}
	return r.Value
}

func TestPreprocessKeepsCleanInstance(t *testing.T) {
	in := mmlp.New(2)
	in.AddConstraint(0, 1, 1, 1)
	in.AddObjective(0, 1)
	in.AddObjective(1, 1)
	pp := Preprocess(in)
	if pp.Outcome != OK {
		t.Fatalf("outcome = %v", pp.Outcome)
	}
	if pp.Out.NumAgents != 2 || len(pp.Out.Cons) != 1 || len(pp.Out.Objs) != 2 {
		t.Fatalf("clean instance was altered: %v", pp.Out.Stats())
	}
}

func TestPreprocessEmptyObjective(t *testing.T) {
	in := mmlp.New(1)
	in.AddConstraint(0, 1)
	in.Objs = append(in.Objs, mmlp.Objective{})
	pp := Preprocess(in)
	if pp.Outcome != ZeroOptimum {
		t.Fatalf("outcome = %v, want ZeroOptimum", pp.Outcome)
	}
	x := pp.Lift(nil)
	if len(x) != 1 || x[0] != 0 {
		t.Fatalf("lift = %v, want zeros", x)
	}
}

func TestPreprocessUnbounded(t *testing.T) {
	in := mmlp.New(1) // one unconstrained agent, one objective on it
	in.AddObjective(0, 1)
	pp := Preprocess(in)
	if pp.Outcome != UnboundedOptimum {
		t.Fatalf("outcome = %v, want UnboundedOptimum", pp.Outcome)
	}
}

func TestPreprocessDropsUnconstrainedObjectiveAndBoosts(t *testing.T) {
	// Agent 0 constrained with objective; agent 1 unconstrained, shares an
	// objective with agent 0 → that objective is dropped and agent 1 boosted.
	in := mmlp.New(2)
	in.AddConstraint(0, 2) // x0 ≤ 1/2
	in.AddObjective(0, 1)
	in.AddObjective(0, 1, 1, 4)
	pp := Preprocess(in)
	if pp.Outcome != OK {
		t.Fatalf("outcome = %v", pp.Outcome)
	}
	if pp.Out.NumAgents != 1 || len(pp.Out.Objs) != 1 {
		t.Fatalf("reduced shape wrong: %v", pp.Out.Stats())
	}
	x := pp.Lift([]float64{0.5})
	if err := in.CheckFeasible(x, 1e-12); err != nil {
		t.Fatalf("lifted infeasible: %v", err)
	}
	if got := in.Utility(x); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("lifted utility = %v, want 0.5", got)
	}
}

func TestPreprocessRemovesEmptyConstraint(t *testing.T) {
	in := mmlp.New(1)
	in.Cons = append(in.Cons, mmlp.Constraint{})
	in.AddConstraint(0, 1)
	in.AddObjective(0, 1)
	pp := Preprocess(in)
	if pp.Outcome != OK || len(pp.Out.Cons) != 1 {
		t.Fatalf("empty constraint not removed: %+v", pp)
	}
}

func TestPreprocessZeroesNonContributing(t *testing.T) {
	// Agent 1 has a constraint but no objective → dropped, x=0.
	in := mmlp.New(2)
	in.AddConstraint(0, 1, 1, 1)
	in.AddObjective(0, 1)
	pp := Preprocess(in)
	if pp.Outcome != OK || pp.Out.NumAgents != 1 {
		t.Fatalf("non-contributing agent kept: %+v", pp.Out.Stats())
	}
	x := pp.Lift([]float64{1})
	if x[1] != 0 {
		t.Fatalf("dropped agent got %v, want 0", x[1])
	}
	if err := in.CheckFeasible(x, 1e-12); err != nil {
		t.Fatalf("lift infeasible: %v", err)
	}
}

func TestAugmentSingletonConstraintsShape(t *testing.T) {
	in := mmlp.New(2)
	in.AddConstraint(0, 1)       // singleton → gadget
	in.AddConstraint(0, 1, 1, 1) // fine
	in.AddObjective(0, 1, 1, 1)
	out, back := AugmentSingletonConstraints(in)
	if out.NumAgents != 5 {
		t.Fatalf("agents = %d, want 5", out.NumAgents)
	}
	for i, c := range out.Cons {
		if len(c.Terms) < 2 {
			t.Fatalf("constraint %d still singleton", i)
		}
	}
	if len(out.Objs) != 3 {
		t.Fatalf("objectives = %d, want 3", len(out.Objs))
	}
	x := back.Apply([]float64{0.25, 0.5, 0, 0.5, 0.5})
	if len(x) != 2 || x[0] != 0.25 || x[1] != 0.5 {
		t.Fatalf("back = %v", x)
	}
}

func TestAugmentSingletonConstraintsPreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		in := randGeneral(rng)
		out, back := AugmentSingletonConstraints(in)
		a, b := optOf(t, in), optOf(t, out)
		if math.Abs(a-b) > 1e-6*math.Max(1, a) {
			t.Fatalf("optimum changed: %v -> %v", a, b)
		}
		// Back-mapped optimal solution is feasible with utility ≥ opt'.
		r := simplex.SolveMaxMin(out)
		x := back.Apply(r.X)
		if err := in.CheckFeasible(x, 1e-7); err != nil {
			t.Fatalf("back-mapped infeasible: %v", err)
		}
		if got := in.Utility(x); got < b-1e-6 {
			t.Fatalf("utility dropped: %v < %v", got, b)
		}
	}
}

func TestReduceConstraintDegreeShape(t *testing.T) {
	in := mmlp.New(3)
	in.AddConstraint(0, 1, 1, 2, 2, 3) // size 3 → 3 pairs
	in.AddObjective(0, 1, 1, 1, 2, 1)
	out, _ := ReduceConstraintDegree(in)
	if len(out.Cons) != 3 {
		t.Fatalf("constraints = %d, want 3", len(out.Cons))
	}
	for i, c := range out.Cons {
		if len(c.Terms) != 2 {
			t.Fatalf("constraint %d has %d terms", i, len(c.Terms))
		}
	}
}

func TestReduceConstraintDegreeBackMapFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		in := randGeneral(rng)
		out, back := ReduceConstraintDegree(in)
		// Transformed optimum is at least the original optimum…
		a, b := optOf(t, in), optOf(t, out)
		if b < a-1e-6 {
			t.Fatalf("opt' = %v < opt = %v", b, a)
		}
		// …and the back-mapped solution is feasible with utility ≥ 2/ΔI · ω'.
		r := simplex.SolveMaxMin(out)
		x := back.Apply(r.X)
		if err := in.CheckFeasible(x, 1e-7); err != nil {
			t.Fatalf("back-mapped infeasible: %v", err)
		}
		dI := float64(in.DegreeI())
		if dI < 2 {
			dI = 2
		}
		if got := in.Utility(x); got < 2*b/dI-1e-6 {
			t.Fatalf("utility %v below 2ω'/ΔI = %v", got, 2*b/dI)
		}
	}
}

func TestSplitAgentsPerObjectiveShape(t *testing.T) {
	in := mmlp.New(2)
	in.AddConstraint(0, 1, 1, 1)
	in.AddObjective(0, 1)
	in.AddObjective(0, 2, 1, 1)
	out, back := SplitAgentsPerObjective(in)
	// Agent 0 has 2 objectives → 2 copies; agent 1 has 1 → 1 copy.
	if out.NumAgents != 3 {
		t.Fatalf("agents = %d, want 3", out.NumAgents)
	}
	// Constraint {0,1} → 2×1 copies.
	if len(out.Cons) != 2 {
		t.Fatalf("constraints = %d, want 2", len(out.Cons))
	}
	inc := out.Incidence()
	for v := 0; v < out.NumAgents; v++ {
		if len(inc.ObjsOf[v]) != 1 {
			t.Fatalf("copy %d has %d objectives", v, len(inc.ObjsOf[v]))
		}
	}
	x := back.Apply([]float64{0.3, 0.6, 0.2})
	if x[0] != 0.6 {
		t.Fatalf("back did not take max: %v", x)
	}
}

func TestSplitAgentsPreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		in := randGeneral(rng)
		pre, _ := ReduceConstraintDegree(in)
		out, back := SplitAgentsPerObjective(pre)
		a, b := optOf(t, pre), optOf(t, out)
		if math.Abs(a-b) > 1e-6*math.Max(1, a) {
			t.Fatalf("optimum changed: %v -> %v", a, b)
		}
		r := simplex.SolveMaxMin(out)
		x := back.Apply(r.X)
		if err := pre.CheckFeasible(x, 1e-7); err != nil {
			t.Fatalf("back-mapped infeasible: %v", err)
		}
		if got := pre.Utility(x); got < b-1e-6 {
			t.Fatalf("utility dropped: %v < %v", got, b)
		}
	}
}

func TestAugmentSingletonObjectivesShape(t *testing.T) {
	in := mmlp.New(2)
	in.AddConstraint(0, 1, 1, 1)
	in.AddObjective(0, 2) // singleton → split agent 0
	in.AddObjective(1, 1, 0, 1)
	// |Kv|=1 violated for agent 0 here, but the step only requires it for
	// correctness of the "charge copy t" branch; build a conforming input:
	in = mmlp.New(2)
	in.AddConstraint(0, 1, 1, 1)
	in.AddObjective(0, 2)
	in.AddObjective(1, 1)
	out, back := AugmentSingletonObjectives(in)
	// Both agents are in singleton objectives → both split → 4 agents.
	if out.NumAgents != 4 {
		t.Fatalf("agents = %d, want 4", out.NumAgents)
	}
	// Constraint {0,1} → 4 combinations.
	if len(out.Cons) != 4 {
		t.Fatalf("constraints = %d, want 4", len(out.Cons))
	}
	for k, o := range out.Objs {
		if len(o.Terms) != 2 {
			t.Fatalf("objective %d still singleton", k)
		}
	}
	// Halved coefficients.
	if out.Objs[0].Terms[0].Coef != 1 {
		t.Fatalf("coef = %v, want 1", out.Objs[0].Terms[0].Coef)
	}
	x := back.Apply([]float64{0.1, 0.4, 0.2, 0.3})
	if x[0] != 0.4 || x[1] != 0.3 {
		t.Fatalf("back = %v", x)
	}
}

func TestAugmentSingletonObjectivesPreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		in := randGeneral(rng)
		pre1, _ := ReduceConstraintDegree(in)
		pre2, _ := SplitAgentsPerObjective(pre1)
		out, back := AugmentSingletonObjectives(pre2)
		a, b := optOf(t, pre2), optOf(t, out)
		if math.Abs(a-b) > 1e-6*math.Max(1, a) {
			t.Fatalf("optimum changed: %v -> %v", a, b)
		}
		r := simplex.SolveMaxMin(out)
		x := back.Apply(r.X)
		if err := pre2.CheckFeasible(x, 1e-7); err != nil {
			t.Fatalf("back-mapped infeasible: %v", err)
		}
		if got := pre2.Utility(x); got < b-1e-6 {
			t.Fatalf("utility dropped: %v < %v", got, b)
		}
	}
}

func TestNormalizeCoefficients(t *testing.T) {
	in := mmlp.New(2)
	in.AddConstraint(0, 3, 1, 1)
	in.AddObjective(0, 2, 1, 4)
	out, back := NormalizeCoefficients(in)
	for _, o := range out.Objs {
		for _, tm := range o.Terms {
			if tm.Coef != 1 {
				t.Fatalf("objective coef = %v, want 1", tm.Coef)
			}
		}
	}
	// a'_00 = 3/2, a'_01 = 1/4.
	if out.Cons[0].Terms[0].Coef != 1.5 || out.Cons[0].Terms[1].Coef != 0.25 {
		t.Fatalf("constraint coefs = %+v", out.Cons[0].Terms)
	}
	// Back-map divides by γ.
	x := back.Apply([]float64{1, 1})
	if x[0] != 0.5 || x[1] != 0.25 {
		t.Fatalf("back = %v", x)
	}
	a, b := optOf(t, in), optOf(t, out)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("optimum changed: %v -> %v", a, b)
	}
}

func TestStructureReachesStructuredForm(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		in := randGeneral(rng)
		p, err := Structure(in)
		if err != nil {
			t.Fatalf("Structure: %v", err)
		}
		if _, err := structured.FromMMLP(p.Final()); err != nil {
			t.Fatalf("not structured: %v", err)
		}
	}
}

func TestStructureEndToEndRatio(t *testing.T) {
	// The composed pipeline must satisfy: for any feasible x' of the final
	// instance, back(x') is feasible and
	// ω(back(x')) ≥ (2/ΔI) ω'(x'). With x' optimal and opt' ≥ opt this is
	// the α → α·ΔI/2 guarantee of §4.3.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 15; trial++ {
		in := randGeneral(rng)
		p, err := Structure(in)
		if err != nil {
			t.Fatalf("Structure: %v", err)
		}
		final := p.Final()
		r := simplex.SolveMaxMin(final)
		if r.Status != simplex.Optimal {
			t.Fatalf("simplex on final: %v", r.Status)
		}
		x := p.Back(r.X)
		if err := in.CheckFeasible(x, 1e-6); err != nil {
			t.Fatalf("end-to-end back-map infeasible: %v", err)
		}
		dI := math.Max(2, float64(in.DegreeI()))
		opt := optOf(t, in)
		got := in.Utility(x)
		if got < 2*opt/dI-1e-6 {
			t.Fatalf("end-to-end utility %v below 2·opt/ΔI = %v (opt=%v)", got, 2*opt/dI, opt)
		}
		// The final instance's optimum upper-bounds the original's.
		if r.Value < opt-1e-6 {
			t.Fatalf("opt(final) = %v < opt = %v", r.Value, opt)
		}
	}
}

func TestStructureRejectsDegenerateInput(t *testing.T) {
	in := mmlp.New(1)
	in.AddObjective(0, 1) // unconstrained agent
	if _, err := Structure(in); err == nil {
		t.Fatal("degenerate input accepted")
	}
}

func TestPipelineFinalOnEmptyPipeline(t *testing.T) {
	in := mmlp.New(1)
	p := &Pipeline{Input: in}
	if p.Final() != in {
		t.Fatal("Final on empty pipeline should return the input")
	}
	x := p.Back([]float64{1})
	if len(x) != 1 || x[0] != 1 {
		t.Fatalf("Back on empty pipeline = %v", x)
	}
}

// Figure 2 golden tests: the four graph rewrites shown in the paper.
func TestFigure2SingletonConstraintGadget(t *testing.T) {
	// Left-most panel: v—i with |Vi|=1 grows the 6-node gadget.
	in := mmlp.New(1)
	in.AddConstraint(0, 1)
	in.AddObjective(0, 1)
	out, _ := AugmentSingletonConstraints(in)
	// Nodes: v + {s,t,u}; rows: i (now {v,s}), j ({t,u}); objectives: k, h, ℓ.
	if out.NumAgents != 4 || len(out.Cons) != 2 || len(out.Objs) != 3 {
		t.Fatalf("gadget shape wrong: %v", out.Stats())
	}
	if len(out.Cons[0].Terms) != 2 || len(out.Cons[1].Terms) != 2 {
		t.Fatalf("gadget constraint sizes wrong")
	}
	// Setting x_s=0, x_t=x_u=1/2 keeps the gadget objectives ≥ M ≥ opt and
	// leaves the original untouched (the paper's argument for opt'=opt).
	x := []float64{1, 0, 0.5, 0.5}
	if err := out.CheckFeasible(x, 1e-12); err != nil {
		t.Fatalf("paper's canonical completion infeasible: %v", err)
	}
}

func TestFigure2DegreeReductionTriangle(t *testing.T) {
	// Second panel: |Vi| = 3 becomes a triangle of three pairwise rows.
	in := mmlp.New(3)
	in.AddConstraint(0, 1, 1, 1, 2, 1)
	in.AddObjective(0, 1, 1, 1, 2, 1)
	out, _ := ReduceConstraintDegree(in)
	if len(out.Cons) != 3 {
		t.Fatalf("triangle has %d rows, want 3", len(out.Cons))
	}
	seen := map[[2]int]bool{}
	for _, c := range out.Cons {
		seen[[2]int{c.Terms[0].Agent, c.Terms[1].Agent}] = true
	}
	for _, want := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		if !seen[want] {
			t.Fatalf("missing pair %v; have %v", want, seen)
		}
	}
}
