package core

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/structured"
	"repro/internal/transform"
)

// bisectT is the plain §5.2 bisection that computeT replaced, one
// evaluation per halving: the reference whose bits the threshold search
// must reproduce.
func (e *evaluator) bisectT(u int32, iters int) float64 {
	return BinarySearch(e.upper(u), iters, func(omega float64) bool {
		return e.feasible(u, omega)
	})
}

// kernelFamilies is the number of family configurations kernelFamily
// builds.
const kernelFamilies = 10

// kernelFamily builds one instance of an in-repo family configuration,
// picked and seeded by the caller, at size n (roughly its agent count).
func kernelFamily(family int, seed int64, n int) *mmlp.Instance {
	switch family % kernelFamilies {
	case 0:
		return gen.Random(gen.RandomConfig{Agents: n, MaxDegI: 3, MaxDegK: 3, ExtraCons: n / 8, ExtraObjs: n / 12}, seed)
	case 1:
		return gen.Random(gen.RandomConfig{Agents: n, MaxDegI: 4, MaxDegK: 4, ExtraCons: n / 6, ExtraObjs: n / 8, ZeroOne: true}, seed)
	case 2:
		// The E1 configuration of the fleet benchmark.
		return gen.Random(gen.RandomConfig{Agents: 24, MaxDegI: 3, MaxDegK: 3, ExtraCons: 6, ExtraObjs: 3}, seed)
	case 3:
		return gen.RandomStructured(gen.StructuredConfig{Objectives: n / 3, MaxDegK: 4, ExtraCons: n / 6}, seed)
	case 4:
		return gen.TriNecklace(n/3 + int(uint64(seed)%4))
	case 5:
		in, _, _ := gen.LayeredNecklace(n/3 + int(uint64(seed)%4))
		return in
	case 6:
		depth := 2
		for 3<<depth <= n {
			depth++
		}
		return gen.LayeredTree(depth + int(uint64(seed)%2))
	case 7:
		return gen.SensorGrid(gen.SensorGridConfig{Width: n / 4, Height: 3, Sensors: n, Fan: 2}, seed)
	case 8:
		return gen.Bandwidth(gen.BandwidthConfig{Links: n, Customers: n / 3, PathsPerCustomer: 2, MaxPathLen: 3}, seed)
	default:
		return gen.Equations(gen.EquationsConfig{Vars: n / 2, Rows: n / 4, Density: 0.3}, seed)
	}
}

// kernelInput scales in's constraint and objective coefficients and runs
// the §4 pipeline to the structured form the kernel solves; ok is false
// when the scaled instance is invalid or has no kernel to run.
func kernelInput(in *mmlp.Instance, consScale, objScale float64) (s *structured.Instance, ok bool) {
	for _, c := range in.Cons {
		for j := range c.Terms {
			c.Terms[j].Coef *= consScale
		}
	}
	for _, o := range in.Objs {
		for j := range o.Terms {
			o.Terms[j].Coef *= objScale
		}
	}
	if in.Validate() != nil {
		return nil, false
	}
	pp := transform.Preprocess(in)
	if pp.Outcome != transform.OK {
		return nil, false
	}
	pipe, err := transform.Structure(pp.Out)
	if err != nil {
		return nil, false
	}
	s, err = structured.FromMMLP(pipe.Final())
	return s, err == nil
}

// compareKernel checks computeT against the reference bisection on every
// agent of s and returns both searches' probe counts.
func compareKernel(t *testing.T, s *structured.Instance, r, iters int) (probes, refProbes int) {
	t.Helper()
	ev, ref := newEvaluator(s, r), newEvaluator(s, r)
	for u := int32(0); int(u) < s.N; u++ {
		got, want := ev.computeT(u, iters), ref.bisectT(u, iters)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("r=%d iters=%d agent %d: threshold search t=%v (%#x), bisection t=%v (%#x)",
				r, iters, u, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	return ev.probes, ref.probes
}

// FuzzThresholdKernel: for every agent, computeT returns the bits of the
// plain bisection, on every in-repo family at R 2–5, any BinIters from 1
// past float64 exhaustion, and constraint and objective coefficients
// scaled by powers of ten down to subnormal — including scalings whose
// §4.6 normalisation leaves coefficients outside (0, +Inf), where the
// search must fall back to bisection.
func FuzzThresholdKernel(f *testing.F) {
	for fam := range kernelFamilies {
		f.Add(uint8(fam), int64(fam+1), uint8(fam%4), uint16(99), int16(0), int16(0))
	}
	f.Add(uint8(4), int64(1), uint8(2), uint16(0), int16(0), int16(0))
	f.Add(uint8(0), int64(3), uint8(1), uint16(999), int16(-300), int16(300))
	f.Add(uint8(3), int64(2), uint8(3), uint16(150), int16(-320), int16(0))
	f.Fuzz(func(t *testing.T, family uint8, seed int64, r uint8, iters uint16, consExp, objExp int16) {
		in := kernelFamily(int(family), seed, 24)
		s, ok := kernelInput(in, math.Pow10(int(consExp%330)), math.Pow10(int(objExp%330)))
		if !ok {
			return
		}
		compareKernel(t, s, int(r%4), 1+int(iters%1100))
	})
}

// TestThresholdProbes pins the kernel's work, which no bit-identity test
// can see: a broken bracket still returns the right bits, from the
// bisection's ~54 probes per agent instead of a handful. At BinIters 100
// the delta benchmark's necklace takes ≤ 3.5 probes per agent, and every
// in-repo family at R 3–5 ≤ 7 per agent and at least 8× fewer than the
// reference bisection on the same agents. Denser Equations rows take more
// Newton steps; they are pinned on their own.
func TestThresholdProbes(t *testing.T) {
	perAgent := func(s *structured.Instance, r int) float64 {
		ev := newEvaluator(s, r)
		for u := int32(0); int(u) < s.N; u++ {
			ev.computeT(u, 100)
		}
		return float64(ev.probes) / float64(s.N)
	}
	s, ok := kernelInput(gen.TriNecklace(1000), 1, 1)
	if !ok {
		t.Fatal("necklace has no kernel input")
	}
	if got := perAgent(s, 2); got > 3.5 {
		t.Errorf("TriNecklace(1000) R=4: %.2f probes per agent, want ≤ 3.5", got)
	}
	for fam := range kernelFamilies {
		for r := 1; r <= 3; r++ {
			probes, ref, agents := 0, 0, 0
			for seed := int64(1); seed <= 3; seed++ {
				s, ok := kernelInput(kernelFamily(fam, seed, 24), 1, 1)
				if !ok {
					continue
				}
				p, pr := compareKernel(t, s, r, 100)
				probes, ref, agents = probes+p, ref+pr, agents+s.N
			}
			if agents == 0 {
				t.Fatalf("family %d built no kernel input", fam)
			}
			per := float64(probes) / float64(agents)
			if per > 7 || probes*8 > ref {
				t.Errorf("family %d R=%d: %.2f probes per agent, reference %.2f; want ≤ 7 and ≥ 8× fewer",
					fam, r+2, per, float64(ref)/float64(agents))
			}
		}
	}
	dense, ok := kernelInput(gen.Equations(gen.EquationsConfig{Vars: 30, Rows: 15, Density: 0.3}, 1), 1, 1)
	if !ok {
		t.Fatal("dense Equations has no kernel input")
	}
	if got := perAgent(dense, 3); got > 10 {
		t.Errorf("dense Equations R=5: %.2f probes per agent, want ≤ 10", got)
	}
}

// searchProbes runs computeT and the reference bisection for root u and
// returns both results and probe counts.
func searchProbes(ev, ref *evaluator, u int32, iters int) (got, want float64, probes, refProbes int) {
	p, pr := ev.probes, ref.probes
	got, want = ev.computeT(u, iters), ref.bisectT(u, iters)
	return got, want, ev.probes - p, ref.probes - pr
}

// TestThresholdKernelDegenerate covers the hand-built corners of the
// threshold search: hi already feasible, t_u = 0, tied minimisers in (7),
// a zero slope at hi, and §4.6 normalisations that leave a structured
// coefficient at 0 or +Inf, where the search must run plain bisection.
func TestThresholdKernelDegenerate(t *testing.T) {
	same := func(t *testing.T, tag string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: threshold search t=%v, bisection t=%v", tag, got, want)
		}
	}
	// pair builds agents 0,1 in one objective and 2,3 in another, joined by
	// the constraints {0,2} and {1,3} with the given coefficients.
	pair := func(a0, a2, a1, a3 float64) *structured.Instance {
		in := mmlp.New(4)
		in.AddObjective(0, 1, 1, 1)
		in.AddObjective(2, 1, 3, 1)
		in.AddConstraint(0, a0, 2, a2)
		in.AddConstraint(1, a1, 3, a3)
		return mustStructured(t, in)
	}

	t.Run("hi-feasible", func(t *testing.T) {
		s := mustStructured(t, twoAgents())
		ev, ref := newEvaluator(s, 0), newEvaluator(s, 0)
		got, want, probes, _ := searchProbes(ev, ref, 0, 100)
		same(t, "hi feasible", got, want)
		if got != ev.upper(0) || probes != 1 {
			t.Fatalf("t=%v from %d probes, want hi=%v from 1", got, probes, ev.upper(0))
		}
	})

	t.Run("t-zero", func(t *testing.T) {
		// Root 0 at R=3: hi ≈ 1e100 but t_u ≈ 2e-100, below every one of the
		// bisection's 100 midpoints.
		s := pair(1e100, 1e100, 1e-100, 1e100)
		ev, ref := newEvaluator(s, 1), newEvaluator(s, 1)
		for _, iters := range []int{3, 100, 1000} {
			got, want, _, _ := searchProbes(ev, ref, 0, iters)
			same(t, "t = 0", got, want)
			if iters <= 100 && got != 0 {
				t.Fatalf("iters %d: t=%v, want 0", iters, got)
			}
		}
	})

	t.Run("tied-minimisers", func(t *testing.T) {
		// Agent 1's two constraints lead to the symmetric agents 2 and 3, so
		// both minimands of its (7) tie at every ω.
		in := mmlp.New(6)
		in.AddObjective(0, 1, 1, 1)
		in.AddObjective(2, 1, 3, 1)
		in.AddObjective(4, 1, 5, 1)
		in.AddConstraint(0, 2, 4, 2)
		in.AddConstraint(1, 2, 2, 2)
		in.AddConstraint(1, 2, 3, 2)
		in.AddConstraint(4, 2, 5, 2)
		s := mustStructured(t, in)
		for r := 0; r <= 3; r++ {
			ev, ref := newEvaluator(s, r), newEvaluator(s, r)
			for u := int32(0); int(u) < s.N; u++ {
				got, want, probes, refProbes := searchProbes(ev, ref, u, 100)
				same(t, "tied minimisers", got, want)
				if probes > 4 || probes > 1 && refProbes < 8*probes {
					t.Fatalf("r=%d root %d: %d probes, reference %d", r, u, probes, refProbes)
				}
			}
		}
	})

	t.Run("zero-slope-at-hi", func(t *testing.T) {
		// Root 0 at R=3: at hi = 1e201 the violated f+ of agent 1 has slope
		// −1e-200·1/1e200, which underflows to zero, and the root condition
		// holds with equality: no Newton step exists.
		s := pair(1e-201, 1, 1e200, 1e-200)
		ev, ref := newEvaluator(s, 1), newEvaluator(s, 1)
		if ev.feasible(0, ev.upper(0)) || ev.step(0) != 0 || ev.wild {
			t.Fatalf("construction lost its zero slope: step %v, wild %v", ev.step(0), ev.wild)
		}
		got, want, _, _ := searchProbes(ev, ref, 0, 100)
		same(t, "zero slope", got, want)
	})

	t.Run("normalised-coefficients", func(t *testing.T) {
		// §4.6 divides a_iv by γ_v: 1e-300/1e300 underflows to 0 and
		// 1e300/1e-300 overflows to +Inf. Every root whose recursion reads
		// the coefficient must fall back to plain bisection: exactly the
		// reference's probes.
		for _, c := range []struct{ a, gamma, want float64 }{{1e-300, 1e300, 0}, {1e300, 1e-300, math.Inf(1)}} {
			in := mmlp.New(4)
			in.AddObjective(0, c.gamma, 1, 1)
			in.AddObjective(2, 1, 3, 1)
			in.AddConstraint(0, c.a, 2, 1)
			in.AddConstraint(1, 1, 3, 1)
			s, ok := kernelInput(in, 1, 1)
			if !ok {
				t.Fatal("no kernel input")
			}
			if got := s.CoefOf(0, 0); got != c.want {
				t.Fatalf("normalised coefficient %v, want %v", got, c.want)
			}
			fellBack := 0
			for r := 0; r <= 3; r++ {
				ev, ref := newEvaluator(s, r), newEvaluator(s, r)
				for u := int32(0); int(u) < s.N; u++ {
					got, want, probes, refProbes := searchProbes(ev, ref, u, 100)
					same(t, "normalised", got, want)
					if ev.wild && ev.upper(u) <= math.MaxFloat64 {
						if probes != refProbes {
							t.Fatalf("coefficient %v r=%d root %d: %d probes, bisection %d", c.want, r, u, probes, refProbes)
						}
						fellBack++
					}
				}
			}
			if fellBack == 0 {
				t.Fatalf("coefficient %v: no root with a finite start read it", c.want)
			}
		}
	})
}
