package transform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mmlp"
	"repro/internal/structured"
)

// randFeasible produces a random feasible point of in.
func randFeasible(rng *rand.Rand, in *mmlp.Instance) []float64 {
	x := make([]float64, in.NumAgents)
	for v := range x {
		x[v] = rng.Float64() * 2
	}
	return in.Strictify(x)
}

func TestQuickPipelineBackMapsFeasiblePoints(t *testing.T) {
	// For ANY feasible point of the structured instance — not only optimal
	// ones — the composed back-map yields a feasible point of the original
	// with ω ≥ 2ω′/max(2,ΔI). This is the pointwise version of §4.3's
	// approximation accounting.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randGeneral(rng)
		p, err := Structure(in)
		if err != nil {
			return false
		}
		final := p.Final()
		xp := randFeasible(rng, final)
		x := p.Back(xp)
		if in.CheckFeasible(x, 1e-7) != nil {
			return false
		}
		dI := math.Max(2, float64(in.DegreeI()))
		return in.Utility(x) >= 2*final.Utility(xp)/dI-1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPreprocessLiftKeepsUtility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Possibly degenerate: drop some rows from a valid instance.
		in := randGeneral(rng)
		if len(in.Cons) > 1 && rng.Intn(2) == 0 {
			in.Cons = in.Cons[:len(in.Cons)-1]
		}
		pp := Preprocess(in)
		if pp.Outcome != OK {
			return true // nothing to lift
		}
		x := randFeasible(rng, pp.Out)
		lifted := pp.Lift(x)
		if in.CheckFeasible(lifted, 1e-7) != nil {
			return false
		}
		return in.Utility(lifted) >= pp.Out.Utility(x)-1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStructuredInstanceInvariants(t *testing.T) {
	// The pipeline's output always satisfies the §5 preconditions, and its
	// ΔK never exceeds max(2, ΔK of the input).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randGeneral(rng)
		p, err := Structure(in)
		if err != nil {
			return false
		}
		final := p.Final()
		if _, err := structured.FromMMLP(final); err != nil {
			return false
		}
		maxK := in.DegreeK()
		if maxK < 2 {
			maxK = 2
		}
		return final.DegreeK() <= maxK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
