package baseline

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/simplex"
)

func optimum(t *testing.T, in *mmlp.Instance) float64 {
	t.Helper()
	r := simplex.SolveMaxMin(in)
	if r.Status != simplex.Optimal {
		t.Fatalf("simplex: %v", r.Status)
	}
	return r.Value
}

func TestSafeFeasibleAndWithinFactor(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		in := gen.Random(gen.RandomConfig{Agents: 8, MaxDegI: 3, MaxDegK: 3, ExtraCons: 2, ExtraObjs: 2}, seed)
		x := SolveSafe(in)
		if err := in.CheckFeasible(x, 1e-12); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt := optimum(t, in)
		dI := float64(in.DegreeI())
		if got := in.Utility(x); got*dI < opt-1e-7 {
			t.Fatalf("seed %d: safe utility %v below opt/ΔI = %v", seed, got, opt/dI)
		}
	}
}

func TestSafeExactOnSymmetricShare(t *testing.T) {
	// x0 + x1 ≤ 1 shared: safe gives 1/2 each.
	in := mmlp.New(2)
	in.AddConstraint(0, 1, 1, 1)
	in.AddObjective(0, 1)
	in.AddObjective(1, 1)
	x := SolveSafe(in)
	if x[0] != 0.5 || x[1] != 0.5 {
		t.Fatalf("safe = %v", x)
	}
}

func TestSingletonConstraintsOptimal(t *testing.T) {
	// ΔI = 1: caps are independently optimal.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(4)
		in := mmlp.New(n)
		for v := 0; v < n; v++ {
			in.AddConstraint(float64(v), 0.5+rng.Float64())
		}
		for r := 0; r < n; r++ {
			a, b := rng.Intn(n), (rng.Intn(n-1)+r)%n
			if a == b {
				in.AddObjective(float64(a), 0.5+rng.Float64())
			} else {
				in.AddObjective(float64(a), 0.5+rng.Float64(), float64(b), 0.5+rng.Float64())
			}
		}
		x := SolveSingletonConstraints(in)
		if err := in.CheckFeasible(x, 1e-12); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt := optimum(t, in)
		if got := in.Utility(x); math.Abs(got-opt) > 1e-7*math.Max(1, opt) {
			t.Fatalf("trial %d: utility %v != opt %v", trial, got, opt)
		}
	}
}

func TestSingletonObjectivesOptimal(t *testing.T) {
	// ΔK = 1: the [17] algorithm is exactly optimal.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(4)
		in := mmlp.New(n)
		// Shared constraints of size ≤ 3.
		for v := 0; v < n; v++ {
			w := (v + 1) % n
			in.AddConstraint(float64(v), 0.5+rng.Float64(), float64(w), 0.5+rng.Float64())
		}
		for e := 0; e < 2; e++ {
			a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			if a != b && b != c && a != c {
				in.AddConstraint(float64(a), 1, float64(b), 1, float64(c), 1)
			}
		}
		// Singleton objectives, some agents twice with different coefs.
		for v := 0; v < n; v++ {
			in.AddObjective(float64(v), 0.5+rng.Float64())
		}
		in.AddObjective(0, 0.25)
		x := SolveSingletonObjectives(in)
		if err := in.CheckFeasible(x, 1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt := optimum(t, in)
		if got := in.Utility(x); math.Abs(got-opt) > 1e-7*math.Max(1, opt) {
			t.Fatalf("trial %d: utility %v != opt %v", trial, got, opt)
		}
	}
}

func TestSingletonObjectivesPanicsOnWideObjective(t *testing.T) {
	in := mmlp.New(2)
	in.AddConstraint(0, 1, 1, 1)
	in.AddObjective(0, 1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	SolveSingletonObjectives(in)
}

func TestSingletonObjectivesZeroesUncoveredAgents(t *testing.T) {
	in := mmlp.New(2)
	in.AddConstraint(0, 1, 1, 1)
	in.AddObjective(0, 2)
	x := SolveSingletonObjectives(in)
	if x[1] != 0 {
		t.Fatalf("uncovered agent got %v", x[1])
	}
	if err := in.CheckFeasible(x, 1e-12); err != nil {
		t.Fatal(err)
	}
}
