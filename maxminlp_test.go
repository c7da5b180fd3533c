package maxminlp

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestSolveLocalEndToEndGuarantee(t *testing.T) {
	// E1 in miniature: feasibility and the Theorem 1 ratio on random
	// general instances across (ΔI, ΔK, R).
	for seed := int64(0); seed < 8; seed++ {
		for _, deg := range [][2]int{{2, 2}, {3, 3}, {4, 2}} {
			in := GenerateRandom(RandomConfig{
				Agents: 8, MaxDegI: deg[0], MaxDegK: deg[1], ExtraCons: 2, ExtraObjs: 1,
			}, seed)
			exact, err := SolveExact(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, R := range []int{2, 3, 5} {
				sol, err := SolveLocal(in, LocalOptions{R: R})
				if err != nil {
					t.Fatal(err)
				}
				if err := in.CheckFeasible(sol.X, 0); err != nil {
					t.Fatalf("seed %d deg %v R %d: %v", seed, deg, R, err)
				}
				bound := RatioBound(in.DegreeI(), in.DegreeK(), R)
				if sol.Utility*bound < exact.Utility-1e-7 {
					t.Fatalf("seed %d deg %v R %d: utility %v × bound %v < opt %v (ratio %.3f)",
						seed, deg, R, sol.Utility, bound, exact.Utility, exact.Utility/sol.Utility)
				}
				if sol.UpperBound < exact.Utility-1e-6 {
					t.Fatalf("upper bound %v below optimum %v", sol.UpperBound, exact.Utility)
				}
			}
		}
	}
}

func TestSolveLocalDistributedMatches(t *testing.T) {
	in := GenerateRandom(RandomConfig{Agents: 6, MaxDegI: 3, MaxDegK: 2, ExtraCons: 1}, 4)
	a, err := SolveLocal(in, LocalOptions{R: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, info, err := SolveLocalDistributed(in, LocalOptions{R: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.X {
		if math.Abs(a.X[v]-b.X[v]) > 0 {
			t.Fatalf("x[%d]: central %v distributed %v", v, a.X[v], b.X[v])
		}
	}
	if info.Rounds != 12*(3-2)+8 {
		t.Fatalf("rounds = %d", info.Rounds)
	}
	if info.Messages == 0 || info.Bytes == 0 || info.MaxMessageBytes == 0 {
		t.Fatalf("traffic not recorded: %+v", info)
	}
}

func TestSolveLocalDistributedCompactOption(t *testing.T) {
	in := GenerateRandom(RandomConfig{Agents: 6, MaxDegI: 3, MaxDegK: 2, ExtraCons: 1}, 4)
	a, infoA, err := SolveLocalDistributed(in, LocalOptions{R: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, infoB, err := SolveLocalDistributed(in, LocalOptions{R: 3, CompactProtocol: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.X {
		if a.X[v] != b.X[v] {
			t.Fatalf("protocols disagree at %d", v)
		}
	}
	if infoB.Bytes >= infoA.Bytes {
		t.Fatalf("compact protocol not smaller: %d vs %d", infoB.Bytes, infoA.Bytes)
	}
	if infoA.Rounds != infoB.Rounds {
		t.Fatalf("round counts differ: %d vs %d", infoA.Rounds, infoB.Rounds)
	}
}

func TestSolveLocalZeroOptimum(t *testing.T) {
	in := NewInstance(1)
	in.AddConstraint(0, 1)
	in.Objs = append(in.Objs, Objective{})
	sol, err := SolveLocal(in, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusZeroOptimum || sol.Utility != 0 {
		t.Fatalf("status %v utility %v", sol.Status, sol.Utility)
	}
}

func TestSolveLocalUnbounded(t *testing.T) {
	in := NewInstance(1)
	in.AddObjective(0, 1)
	sol, err := SolveLocal(in, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusUnbounded {
		t.Fatalf("status %v", sol.Status)
	}
	ex, err := SolveExact(in)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Status != StatusUnbounded {
		t.Fatalf("exact status %v", ex.Status)
	}
}

func TestSolveLocalSingletonConstraintCase(t *testing.T) {
	// ΔI = 1 dispatches to the optimal [17] algorithm.
	in := NewInstance(2)
	in.AddConstraint(0, 2)
	in.AddConstraint(1, 4)
	in.AddObjective(0, 1, 1, 1)
	sol, err := SolveLocal(in, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Utility-0.75) > 1e-12 {
		t.Fatalf("utility %v, want 0.75", sol.Utility)
	}
}

func TestSolveLocalSingletonObjectiveCase(t *testing.T) {
	// ΔK = 1 dispatches to the optimal [17] algorithm.
	in := NewInstance(2)
	in.AddConstraint(0, 1, 1, 1)
	in.AddObjective(0, 1)
	in.AddObjective(1, 1)
	sol, err := SolveLocal(in, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	exact, _ := SolveExact(in)
	if math.Abs(sol.Utility-exact.Utility) > 1e-9 {
		t.Fatalf("utility %v vs optimum %v", sol.Utility, exact.Utility)
	}
	// The general pipeline must also run when special cases are disabled.
	gen, err := SolveLocal(in, LocalOptions{DisableSpecialCases: true, R: 3})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Status != StatusApproximate {
		t.Fatalf("general pipeline status %v", gen.Status)
	}
	if err := in.CheckFeasible(gen.X, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSolveLocalRejectsBadInput(t *testing.T) {
	bad := NewInstance(1)
	bad.AddConstraint(5, 1)
	if _, err := SolveLocal(bad, LocalOptions{}); err == nil {
		t.Fatal("invalid instance accepted")
	}
	ok := NewInstance(1)
	ok.AddConstraint(0, 1)
	ok.AddObjective(0, 1)
	if _, err := SolveLocal(ok, LocalOptions{R: 1}); err == nil {
		t.Fatal("R=1 accepted")
	}
}

// TestSolveLocalWorkers: the public worker count reaches the kernel — a
// negative one fails core's validation — and no count changes an answer
// bit.
func TestSolveLocalWorkers(t *testing.T) {
	in := GenerateTriNecklace(200)
	if _, err := SolveLocal(in, LocalOptions{Workers: -1}); err == nil ||
		!strings.Contains(err.Error(), "core: negative BinIters or Workers") {
		t.Fatalf("Workers -1: err = %v, want core's validation error", err)
	}
	want, err := SolveLocal(in, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 3} {
		sol, err := SolveLocal(in, LocalOptions{Workers: w})
		if err != nil {
			t.Fatalf("Workers %d: %v", w, err)
		}
		if math.Float64bits(sol.Utility) != math.Float64bits(want.Utility) ||
			math.Float64bits(sol.UpperBound) != math.Float64bits(want.UpperBound) {
			t.Fatalf("Workers %d: utility %v bound %v, want %v and %v", w, sol.Utility, sol.UpperBound, want.Utility, want.UpperBound)
		}
		for v := range want.X {
			if math.Float64bits(sol.X[v]) != math.Float64bits(want.X[v]) {
				t.Fatalf("Workers %d: X[%d] = %v, want %v", w, v, sol.X[v], want.X[v])
			}
		}
	}
}

func TestSolveExactRationalAgrees(t *testing.T) {
	in := GenerateRandom(RandomConfig{Agents: 5, MaxDegI: 2, MaxDegK: 2, ExtraCons: 1}, 9)
	a, err := SolveExact(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveExactRational(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Utility-b.Utility) > 1e-7 {
		t.Fatalf("float %v vs rational %v", a.Utility, b.Utility)
	}
	if b.Status != StatusOptimal {
		t.Fatalf("status %v", b.Status)
	}
}

func TestSolveSafeBaseline(t *testing.T) {
	in := GenerateRandom(RandomConfig{Agents: 8, MaxDegI: 3, MaxDegK: 3, ExtraCons: 2}, 2)
	safe, err := SolveSafe(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.CheckFeasible(safe.X, 0); err != nil {
		t.Fatal(err)
	}
	exact, _ := SolveExact(in)
	if safe.Utility*float64(in.DegreeI()) < exact.Utility-1e-7 {
		t.Fatalf("safe worse than ΔI guarantee: %v vs opt %v", safe.Utility, exact.Utility)
	}
}

func TestRatioBoundAndThreshold(t *testing.T) {
	if got := RatioBound(2, 2, 3); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("RatioBound(2,2,3) = %v, want 1.5", got)
	}
	if got := RatioBound(1, 1, 3); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("degrees clamp to 2: got %v", got)
	}
	if got := LocalityThreshold(3, 3); math.Abs(got-2) > 1e-12 {
		t.Fatalf("LocalityThreshold(3,3) = %v, want 2", got)
	}
	// Bound decreases in R towards the threshold.
	if RatioBound(3, 3, 10) >= RatioBound(3, 3, 3) {
		t.Fatal("bound not decreasing in R")
	}
	if RatioBound(3, 3, 1000) < LocalityThreshold(3, 3) {
		t.Fatal("bound below threshold")
	}
}

func TestSolveLocalSelfCheck(t *testing.T) {
	in := GenerateRandom(RandomConfig{Agents: 10, MaxDegI: 3, MaxDegK: 3, ExtraCons: 3}, 6)
	sol, err := SolveLocal(in, LocalOptions{R: 3, SelfCheck: true, DisableSpecialCases: true})
	if err != nil {
		t.Fatalf("self-check rejected a valid run: %v", err)
	}
	if err := in.CheckFeasible(sol.X, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSolveExactCertified(t *testing.T) {
	in := GenerateRandom(RandomConfig{Agents: 8, MaxDegI: 3, MaxDegK: 2, ExtraCons: 2}, 3)
	sol, cert, err := SolveExactCertified(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Verify(in, 1e-6); err != nil {
		t.Fatalf("certificate invalid: %v", err)
	}
	if math.Abs(cert.Bound-sol.Utility) > 1e-5*math.Max(1, sol.Utility) {
		t.Fatalf("certified bound %v far from optimum %v", cert.Bound, sol.Utility)
	}
	// The certificate really is an upper bound for the local solution too.
	local, err := SolveLocal(in, LocalOptions{R: 3})
	if err != nil {
		t.Fatal(err)
	}
	if local.Utility > cert.Bound+1e-6 {
		t.Fatalf("local utility %v exceeds certified bound %v", local.Utility, cert.Bound)
	}
	bad := NewInstance(1)
	bad.AddConstraint(5, 1)
	if _, _, err := SolveExactCertified(bad); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

// TestSolveExactCertifiedNotOptimal: an instance SolveExact reports
// unbounded has no optimum to certify, and the error says so with
// ErrNotOptimal.
func TestSolveExactCertifiedNotOptimal(t *testing.T) {
	unconstrained := NewInstance(2)
	unconstrained.AddConstraint(0, 1)
	unconstrained.AddObjective(1, 1)
	noObjectives := NewInstance(1)
	noObjectives.AddConstraint(0, 1)
	for name, in := range map[string]*Instance{"unconstrained objective": unconstrained, "no objectives": noObjectives} {
		if sol, err := SolveExact(in); err != nil || sol.Status != StatusUnbounded {
			t.Fatalf("%s: SolveExact = %+v, %v; want unbounded", name, sol, err)
		}
		if _, _, err := SolveExactCertified(in); !errors.Is(err, ErrNotOptimal) {
			t.Errorf("%s: SolveExactCertified error %v does not wrap ErrNotOptimal", name, err)
		}
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusApproximate: "approximate",
		StatusOptimal:     "optimal",
		StatusUnbounded:   "unbounded",
		StatusZeroOptimum: "zero-optimum",
	} {
		if s.String() != want {
			t.Fatalf("%d → %q", s, s.String())
		}
	}
	if Status(77).String() == "" {
		t.Fatal("unknown status should render")
	}
}

func TestApplicationGeneratorsEndToEnd(t *testing.T) {
	// The three application workloads run through the full pipeline.
	sensor := GenerateSensorGrid(SensorGridConfig{Width: 3, Height: 3, Sensors: 4, Fan: 2}, 1)
	bw := GenerateBandwidth(BandwidthConfig{Links: 8, Customers: 3, PathsPerCustomer: 2, MaxPathLen: 3}, 1)
	eqs := GenerateEquations(EquationsConfig{Vars: 4, Rows: 3, Density: 0.6}, 1)
	for name, in := range map[string]*Instance{"sensor": sensor, "bandwidth": bw, "equations": eqs} {
		sol, err := SolveLocal(in, LocalOptions{R: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := in.CheckFeasible(sol.X, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		exact, err := SolveExact(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bound := RatioBound(in.DegreeI(), in.DegreeK(), 3)
		if sol.Utility*bound < exact.Utility-1e-7 {
			t.Fatalf("%s: ratio %v exceeds bound %v", name, exact.Utility/sol.Utility, bound)
		}
	}
}

func TestTriNecklaceEndToEnd(t *testing.T) {
	in := GenerateTriNecklace(6)
	sol, err := SolveLocal(in, LocalOptions{R: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.CheckFeasible(sol.X, 0); err != nil {
		t.Fatal(err)
	}
	exact, _ := SolveExact(in)
	if ratio := exact.Utility / sol.Utility; ratio > RatioBound(2, 3, 4)+1e-9 {
		t.Fatalf("necklace ratio %v exceeds bound %v", ratio, RatioBound(2, 3, 4))
	}
}

func TestSolveBatchCached(t *testing.T) {
	// Duplicate jobs through the public batch surface with the result
	// cache enabled: every result must be bit-identical to the sequential
	// solve, the repeats must be tagged Cached, and the stats must carry
	// the cache counters.
	in := GenerateRandom(RandomConfig{Agents: 14, MaxDegI: 3, MaxDegK: 3, ExtraCons: 4, ExtraObjs: 2}, 5)
	want, err := SolveLocal(in, LocalOptions{R: 3, DisableSpecialCases: true})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]BatchJob, 12)
	for i := range jobs {
		jobs[i] = BatchJob{In: in, Opts: LocalOptions{R: 3, DisableSpecialCases: true}}
	}
	res, stats, err := SolveBatch(context.Background(), jobs, BatchOptions{Workers: 3, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Cached {
			cached++
		}
		for v := range want.X {
			if r.Sol.X[v] != want.X[v] {
				t.Fatalf("job %d: X[%d] = %v, want %v", i, v, r.Sol.X[v], want.X[v])
			}
		}
	}
	if cached < len(jobs)-3 {
		t.Fatalf("cached results = %d of %d duplicates", cached, len(jobs))
	}
	if stats.Cache == nil || stats.Cache.Entries != 1 {
		t.Fatalf("batch cache stats = %+v", stats.Cache)
	}
}
