package dist_test

import (
	"context"
	"fmt"
	"testing"

	maxminlp "repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/structured"
	"repro/internal/transform"
)

// protocols names the two stage-1 variants under test.
var protocols = []struct {
	name string
	run  func(context.Context, *structured.Instance, core.Options) (*dist.Result, error)
}{
	{"views", dist.SolveDistributed},
	{"records", dist.SolveDistributedCompact},
}

// structuredFamilies builds the structured-form instances of the
// conformance sweep: the adversarial necklace, a random structured
// instance, and a random general instance pushed through the §4
// transformation pipeline.
func structuredFamilies(t *testing.T) map[string]*structured.Instance {
	t.Helper()
	out := map[string]*structured.Instance{}
	add := func(name string, in *mmlp.Instance) {
		s, err := structured.FromMMLP(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = s
	}
	add("TriNecklace", gen.TriNecklace(5))
	add("Structured", gen.RandomStructured(gen.StructuredConfig{Objectives: 8, MaxDegK: 3, ExtraCons: 4}, 7))

	in := gen.Random(gen.RandomConfig{Agents: 10, MaxDegI: 3, MaxDegK: 3, ExtraCons: 3, ExtraObjs: 1}, 11)
	pp := transform.Preprocess(in)
	if pp.Outcome != transform.OK {
		t.Fatalf("Random: unexpected preprocess outcome %v", pp.Outcome)
	}
	pipe, err := transform.Structure(pp.Out)
	if err != nil {
		t.Fatalf("Random: %v", err)
	}
	s, err := structured.FromMMLP(pipe.Final())
	if err != nil {
		t.Fatalf("Random: %v", err)
	}
	out["Random"] = s
	return out
}

// TestDistConformance asserts that both protocols return T and X
// bit-identical to the centralised engine on every family and every
// R ∈ {2, 3, 4}.
func TestDistConformance(t *testing.T) {
	for name, s := range structuredFamilies(t) {
		for _, R := range []int{2, 3, 4} {
			want, err := core.Solve(s, core.Options{R: R})
			if err != nil {
				t.Fatalf("%s R=%d: core: %v", name, R, err)
			}
			for _, pr := range protocols {
				t.Run(fmt.Sprintf("%s/%s/R=%d", name, pr.name, R), func(t *testing.T) {
					got, err := pr.run(context.Background(), s, core.Options{R: R})
					if err != nil {
						t.Fatal(err)
					}
					for u := range want.T {
						if got.T[u] != want.T[u] {
							t.Fatalf("T[%d] = %v, centralised %v", u, got.T[u], want.T[u])
						}
					}
					for v := range want.X {
						if got.X[v] != want.X[v] {
							t.Fatalf("X[%d] = %v, centralised %v", v, got.X[v], want.X[v])
						}
					}
				})
			}
		}
	}
}

// TestDistProtocolsAgree asserts the two protocols agree bit-for-bit with
// each other (a consequence of conformance, checked directly for the
// statistic fields too: rounds and message counts of the shared phases
// must coincide).
func TestDistProtocolsAgree(t *testing.T) {
	s, err := structured.FromMMLP(gen.TriNecklace(6))
	if err != nil {
		t.Fatal(err)
	}
	a, err := dist.SolveDistributed(context.Background(), s, core.Options{R: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := dist.SolveDistributedCompact(context.Background(), s, core.Options{R: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds {
		t.Fatalf("rounds differ: %d vs %d", a.Rounds, b.Rounds)
	}
	for v := range a.X {
		if a.X[v] != b.X[v] || a.T[v] != b.T[v] {
			t.Fatalf("protocols disagree at agent %d", v)
		}
	}
	// The scalar phases (everything after gathering) are identical
	// protocols, so their per-round message counts must match.
	gather := 4*(3-2) + 3
	for i := gather; i < len(a.Stats.PerRound); i++ {
		if a.Stats.PerRound[i].Messages != b.Stats.PerRound[i].Messages {
			t.Fatalf("round %d: %d vs %d messages", i+1,
				a.Stats.PerRound[i].Messages, b.Stats.PerRound[i].Messages)
		}
	}
}

// TestDistPublicAPIAgreement asserts SolveLocalDistributed ==
// SolveLocal through the public library surface, for both protocols, on a
// general (unstructured) instance.
func TestDistPublicAPIAgreement(t *testing.T) {
	in := maxminlp.GenerateRandom(maxminlp.RandomConfig{
		Agents: 9, MaxDegI: 3, MaxDegK: 3, ExtraCons: 2, ExtraObjs: 1,
	}, 3)
	for _, R := range []int{2, 3, 4} {
		central, err := maxminlp.SolveLocal(in, maxminlp.LocalOptions{R: R, DisableSpecialCases: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, compact := range []bool{false, true} {
			sol, info, err := maxminlp.SolveLocalDistributed(in, maxminlp.LocalOptions{
				R: R, DisableSpecialCases: true, CompactProtocol: compact,
			})
			if err != nil {
				t.Fatal(err)
			}
			for v := range central.X {
				if sol.X[v] != central.X[v] {
					t.Fatalf("R=%d compact=%v: X[%d] = %v, central %v", R, compact, v, sol.X[v], central.X[v])
				}
			}
			if sol.Utility != central.Utility || sol.UpperBound != central.UpperBound {
				t.Fatalf("R=%d compact=%v: utility/bound differ", R, compact)
			}
			if info.Rounds != 12*(R-2)+8 {
				t.Fatalf("R=%d: rounds = %d", R, info.Rounds)
			}
		}
	}
}
