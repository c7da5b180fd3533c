package transform

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/structured"
)

// structuredInputs are the in-repo families already in structured form,
// each also with its constraint rows reweighted by 10^300 and 10^−300 in
// turn.
func structuredInputs() map[string]*mmlp.Instance {
	necklace, _, _ := gen.LayeredNecklace(9)
	base := map[string]*mmlp.Instance{
		"tri-necklace":     gen.TriNecklace(8),
		"layered-necklace": necklace,
		"layered-tree":     gen.LayeredTree(4),
		"random-structured": gen.RandomStructured(
			gen.StructuredConfig{Objectives: 12, MaxDegK: 4, ExtraCons: 6}, 3),
	}
	out := map[string]*mmlp.Instance{}
	for name, in := range base {
		out[name] = in
		scaled := in.Clone()
		for i, c := range scaled.Cons {
			for j := range c.Terms {
				c.Terms[j].Coef *= [2]float64{1e300, 1e-300}[i%2]
			}
		}
		out[name+"-reweighted"] = scaled
	}
	return out
}

// specialPoint fills a point of n coordinates with the values a
// pass-through back-map must not treat as the identity: −0, negatives,
// NaN, ±Inf, subnormals and values above MaxFloat64/2.
func specialPoint(n int) []float64 {
	vals := []float64{math.Copysign(0, -1), -1.5, math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, 2.5e-310, math.MaxFloat64, math.MaxFloat64 / 1.5, -math.MaxFloat64, 0.25, 0}
	x := make([]float64, n)
	for v := range x {
		x[v] = vals[v%len(vals)]
	}
	return x
}

// TestStructurePassThrough: a structured input passes through every step
// of StructureScratch uncopied, yet its final instance equals the five
// real rewrites (the exported steps, which always rewrite) row for row and
// its composed back-map equals theirs bit for bit, even on points where
// the back-maps are not the identity.
func TestStructurePassThrough(t *testing.T) {
	sc := NewScratch()
	for name, in := range structuredInputs() {
		if _, err := structured.FromMMLP(in); err != nil {
			t.Fatalf("%s: not structured: %v", name, err)
		}
		p, err := StructureScratch(in, sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cur, backs := in, []BackMap{}
		for _, step := range []func(*mmlp.Instance) (*mmlp.Instance, BackMap){
			AugmentSingletonConstraints, ReduceConstraintDegree, SplitAgentsPerObjective,
			AugmentSingletonObjectives, NormalizeCoefficients,
		} {
			var back BackMap
			cur, back = step(cur)
			backs = append(backs, back)
		}
		if len(p.Steps) != len(backs) {
			t.Fatalf("%s: %d steps, want %d", name, len(p.Steps), len(backs))
		}
		for s, st := range p.Steps {
			if st.Out != in {
				t.Fatalf("%s: step %d (%q) rebuilt its input", name, s, st.Name)
			}
		}
		sameInstance(t, name+" final", p.Final(), cur)
		x := specialPoint(in.NumAgents)
		want := x
		for s := len(backs) - 1; s >= 0; s-- {
			want = backs[s].Apply(want)
		}
		sameVector(t, name+" back-map", p.Back(x), want)
	}
}

// TestPreprocessPassThrough: with nothing to remove, Preprocess hands its
// input on as the reduced instance and lifts a point to its own values;
// with something to remove, it still builds the reduced instance.
func TestPreprocessPassThrough(t *testing.T) {
	sc := NewScratch()
	for name, in := range structuredInputs() {
		pp := PreprocessScratch(in, sc)
		if pp.Outcome != OK || pp.Out != in {
			t.Fatalf("%s: outcome %v, reduced instance rebuilt: %v", name, pp.Outcome, pp.Out != in)
		}
		x := specialPoint(in.NumAgents)
		sameVector(t, name+" lift", pp.Lift(x), x)
	}
	drop := gen.TriNecklace(4)
	drop.NumAgents++
	drop.AddObjective(float64(drop.NumAgents-1), 1, 0, 1) // an unconstrained agent
	if pp := PreprocessScratch(drop, sc); pp.Outcome != OK || pp.Out == drop {
		t.Fatal("an instance with an objective to drop passed through Preprocess")
	}
	empty := gen.TriNecklace(4)
	empty.Cons = append(empty.Cons, mmlp.Constraint{})
	if pp := PreprocessScratch(empty, sc); pp.Outcome != OK || pp.Out == empty || len(pp.Out.Cons) != len(empty.Cons)-1 {
		t.Fatal("an instance with an empty constraint passed through Preprocess")
	}
}
