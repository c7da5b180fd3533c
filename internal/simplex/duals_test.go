package simplex

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
)

func TestDualsStrongDualityKnownLP(t *testing.T) {
	// max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → 36.
	// Known duals: y1 = 0, y2 = 3/2, y3 = 1.
	p := New(2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 5)
	p.AddRow(LE, 4, 0, 1)
	p.AddRow(LE, 12, 1, 2)
	p.AddRow(LE, 18, 0, 3, 1, 2)
	r, duals := SolveWithDuals(p)
	if r.Status != Optimal {
		t.Fatalf("status %v", r.Status)
	}
	want := []float64{0, 1.5, 1}
	for i := range want {
		if math.Abs(duals[i]-want[i]) > 1e-9 {
			t.Fatalf("dual %d = %v, want %v", i, duals[i], want[i])
		}
	}
	// Strong duality.
	if got := 4*duals[0] + 12*duals[1] + 18*duals[2]; math.Abs(got-r.Value) > 1e-9 {
		t.Fatalf("yᵀb = %v vs optimum %v", got, r.Value)
	}
}

func TestDualsWithGEAndEQ(t *testing.T) {
	// max x + y s.t. x + y ≤ 10, x ≥ 2, y = 3.
	p := New(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.AddRow(LE, 10, 0, 1, 1, 1)
	p.AddRow(GE, 2, 0, 1)
	p.AddRow(EQ, 3, 1, 1)
	r, duals := SolveWithDuals(p)
	if r.Status != Optimal {
		t.Fatalf("status %v", r.Status)
	}
	if got := 10*duals[0] + 2*duals[1] + 3*duals[2]; math.Abs(got-r.Value) > 1e-9 {
		t.Fatalf("strong duality: yᵀb = %v vs %v", got, r.Value)
	}
	if duals[0] < -1e-12 {
		t.Fatalf("≤ row has negative dual %v", duals[0])
	}
	if duals[1] > 1e-12 {
		t.Fatalf("≥ row has positive dual %v", duals[1])
	}
}

func TestQuickStrongDualityRandomLPs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		p := New(n)
		for j := 0; j < n; j++ {
			p.SetObjective(j, rng.Float64()*3)
			p.AddRow(LE, 1+rng.Float64()*3, float64(j), 0.5+rng.Float64())
		}
		for r := 0; r < rng.Intn(3); r++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			p.AddRow(LE, 1+rng.Float64()*2, float64(a), 0.5+rng.Float64(), float64(b), 0.5+rng.Float64())
		}
		res, duals := SolveWithDuals(p)
		if res.Status != Optimal {
			return false
		}
		yb := 0.0
		for i, row := range p.Rows {
			yb += duals[i] * row.RHS
		}
		if math.Abs(yb-res.Value) > 1e-6*math.Max(1, math.Abs(res.Value)) {
			return false
		}
		// Dual feasibility: Σ_i y_i a_ij ≥ c_j.
		price := make([]float64, n)
		for i, row := range p.Rows {
			for _, e := range row.Entries {
				price[e.Var] += duals[i] * e.Coef
			}
		}
		for j := 0; j < n; j++ {
			if price[j] < p.Objective[j]-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDualsMixedRowsRandom reaches every branch of the column plan the
// duals are read from: ≤, ≥ and = rows whose right-hand sides take both
// signs, so rows are flipped, surplus columns price the ≥ rows and
// artificial columns the = rows. A bounding ≤ row per variable keeps every
// feasible LP bounded.
func TestDualsMixedRowsRandom(t *testing.T) {
	optimal := 0
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		p := New(n)
		for j := 0; j < n; j++ {
			p.SetObjective(j, rng.Float64()*3-1)
			p.AddRow(LE, 1+rng.Float64()*3, float64(j), 0.5+rng.Float64())
		}
		for r := 1 + rng.Intn(4); r > 0; r-- {
			a, b := rng.Intn(n), rng.Intn(n)
			pairs := []float64{float64(a), rng.Float64()*2 - 0.5}
			if a != b {
				pairs = append(pairs, float64(b), rng.Float64()*2-0.5)
			}
			p.AddRow(Relation(rng.Intn(3)), rng.Float64()*4-2, pairs...)
		}
		res, duals := SolveWithDuals(p)
		if res.Status != Optimal {
			continue
		}
		optimal++
		yb := 0.0
		price := make([]float64, n)
		for i, row := range p.Rows {
			yb += duals[i] * row.RHS
			for _, e := range row.Entries {
				price[e.Var] += duals[i] * e.Coef
			}
			if row.Rel == LE && duals[i] < -1e-9 || row.Rel == GE && duals[i] > 1e-9 {
				t.Fatalf("seed %d: %v row %d has dual %v", seed, row.Rel, i, duals[i])
			}
		}
		if math.Abs(yb-res.Value) > 1e-6*math.Max(1, math.Abs(res.Value)) {
			t.Fatalf("seed %d: yᵀb = %v vs optimum %v", seed, yb, res.Value)
		}
		for j := 0; j < n; j++ {
			if price[j] < p.Objective[j]-1e-6 {
				t.Fatalf("seed %d: variable %d priced %v below its cost %v", seed, j, price[j], p.Objective[j])
			}
		}
	}
	if optimal < 500 {
		t.Fatalf("only %d of 3000 LPs optimal", optimal)
	}
}

func TestCertifyMaxMin(t *testing.T) {
	in := twoAgentShared()
	res, cert, err := CertifyMaxMin(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-0.5) > 1e-9 {
		t.Fatalf("optimum %v", res.Value)
	}
	if err := cert.Verify(in, 1e-9); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
	if math.Abs(cert.Bound-res.Value) > 1e-7 {
		t.Fatalf("certificate bound %v vs optimum %v", cert.Bound, res.Value)
	}
}

func TestQuickCertifyMaxMinRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randMaxMin(rng)
		res, cert, err := CertifyMaxMin(in)
		if err != nil {
			return false
		}
		if cert.Verify(in, 1e-6) != nil {
			return false
		}
		// The certified bound matches the optimum (strong duality), and it
		// really bounds the primal value.
		return math.Abs(cert.Bound-res.Value) < 1e-5*math.Max(1, res.Value) &&
			in.Utility(res.X) <= cert.Bound+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// FuzzCertifyMaxMin: on generated instances of 2–12 agents and degrees
// 1–4, 0/1 coefficients included, either certification fails and the
// rational optimum is not finite, or the certificate verifies and both its
// bound and the float optimum lie within 1e-6·max(1, opt) of the rational
// optimum.
func FuzzCertifyMaxMin(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), uint8(2), uint8(1), false)
	f.Add(int64(2), uint8(10), uint8(3), uint8(1), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, agents, degI, degK, extra uint8, zeroOne bool) {
		in := gen.Random(gen.RandomConfig{
			Agents:    2 + int(agents%11),
			MaxDegI:   1 + int(degI%4),
			MaxDegK:   1 + int(degK%4),
			ExtraCons: int(extra % 4),
			ExtraObjs: int(extra / 4 % 4),
			ZeroOne:   zeroOne,
		}, seed)
		res, cert, err := CertifyMaxMin(in)
		rat := SolveMaxMinRat(in)
		if err != nil {
			if rat.Status == Optimal {
				t.Fatalf("certification failed (%v) on an instance with rational optimum %v", err, rat.Value)
			}
			return
		}
		if rat.Status != Optimal {
			t.Fatalf("certified bound %v on an instance the rational solve calls %v", cert.Bound, rat.Status)
		}
		if err := cert.Verify(in, 1e-6); err != nil {
			t.Fatalf("certificate rejected: %v", err)
		}
		opt := RatFloat(rat.Value)
		tol := 1e-6 * math.Max(1, opt)
		if math.Abs(cert.Bound-opt) > tol || math.Abs(res.Value-opt) > tol {
			t.Fatalf("bound %v and float optimum %v, rational optimum %v", cert.Bound, res.Value, opt)
		}
	})
}

func TestCertificateVerifyRejectsBogus(t *testing.T) {
	in := twoAgentShared()
	_, cert, err := CertifyMaxMin(in)
	if err != nil {
		t.Fatal(err)
	}
	bogus := *cert
	bogus.YObjs = append([]float64(nil), cert.YObjs...)
	bogus.YObjs[0] = 0 // breaks the ω cover
	bogus.YObjs[1] = 0
	if err := bogus.Verify(in, 1e-9); err == nil {
		t.Fatal("uncovered ω accepted")
	}
	bogus2 := *cert
	bogus2.Bound = cert.Bound * 2
	if err := bogus2.Verify(in, 1e-9); err == nil {
		t.Fatal("inflated bound accepted")
	}
	bogus3 := *cert
	bogus3.YCons = []float64{}
	if err := bogus3.Verify(in, 1e-9); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}
