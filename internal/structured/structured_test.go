package structured

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/mmlp"
)

// sample: objective {0,1,2}, constraints {0,1} a=(1,2) and {1,2} a=(0.5,1),
// plus objective {3,4} with constraint {3,4} — two components.
func sample() *mmlp.Instance {
	in := mmlp.New(5)
	in.AddObjective(0, 1, 1, 1, 2, 1)
	in.AddObjective(3, 1, 4, 1)
	in.AddConstraint(0, 1, 1, 2)
	in.AddConstraint(1, 0.5, 2, 1)
	in.AddConstraint(3, 1, 4, 1)
	return in
}

func TestFromMMLPBuildsArrays(t *testing.T) {
	s, err := FromMMLP(sample())
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 {
		t.Fatalf("N = %d", s.N)
	}
	if s.ObjOf[0] != 0 || s.ObjOf[4] != 1 {
		t.Fatalf("ObjOf wrong: %v", s.ObjOf)
	}
	if len(s.Objs[0]) != 3 || len(s.Objs[1]) != 2 {
		t.Fatalf("Objs sizes wrong")
	}
	if len(s.ConsOf[1]) != 2 {
		t.Fatalf("agent 1 should be in 2 constraints, got %d", len(s.ConsOf[1]))
	}
	// Caps: agent 1 has a = 2 and 0.5 → cap = 1/2.
	if s.Caps[1] != 0.5 {
		t.Fatalf("cap[1] = %v", s.Caps[1])
	}
	if s.Caps[0] != 1 || s.Caps[2] != 1 {
		t.Fatalf("caps wrong: %v", s.Caps)
	}
}

func TestFromMMLPRejects(t *testing.T) {
	// Objective too small.
	a := mmlp.New(1)
	a.AddObjective(0, 1)
	if _, err := FromMMLP(a); err == nil {
		t.Fatal("singleton objective accepted")
	}
	// Non-unit coefficient.
	b := mmlp.New(2)
	b.AddObjective(0, 1, 1, 2)
	b.AddConstraint(0, 1, 1, 1)
	if _, err := FromMMLP(b); err == nil {
		t.Fatal("non-unit coefficient accepted")
	}
	// Agent in two objectives.
	c := mmlp.New(3)
	c.AddObjective(0, 1, 1, 1)
	c.AddObjective(0, 1, 2, 1)
	c.AddConstraint(0, 1, 1, 1)
	c.AddConstraint(2, 1, 0, 1)
	if _, err := FromMMLP(c); err == nil {
		t.Fatal("doubly covered agent accepted")
	}
	// Agent without objective.
	d := mmlp.New(3)
	d.AddObjective(0, 1, 1, 1)
	d.AddConstraint(1, 1, 2, 1)
	if _, err := FromMMLP(d); err == nil {
		t.Fatal("uncovered agent accepted")
	}
	// Constraint with wrong arity.
	e := mmlp.New(2)
	e.AddObjective(0, 1, 1, 1)
	e.AddConstraint(0, 1)
	if _, err := FromMMLP(e); err == nil {
		t.Fatal("singleton constraint accepted")
	}
	// Agent without constraint.
	f := mmlp.New(2)
	f.AddObjective(0, 1, 1, 1)
	f.AddConstraint(0, 1, 0, 1) // invalid duplicate… use a valid pair on one agent twice
	if _, err := FromMMLP(f); err == nil {
		t.Fatal("expected rejection (agent 1 unconstrained or duplicate pair)")
	}
}

func TestPartnerAndCoef(t *testing.T) {
	s, err := FromMMLP(sample())
	if err != nil {
		t.Fatal(err)
	}
	w, av, aw := s.Partner(0, 0)
	if w != 1 || av != 1 || aw != 2 {
		t.Fatalf("Partner(0,0) = %d %v %v", w, av, aw)
	}
	w, av, aw = s.Partner(0, 1)
	if w != 0 || av != 2 || aw != 1 {
		t.Fatalf("Partner(0,1) = %d %v %v", w, av, aw)
	}
	if got := s.CoefOf(1, 1); got != 0.5 {
		t.Fatalf("CoefOf(1,1) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CoefOf on absent agent should panic")
		}
	}()
	s.CoefOf(0, 4)
}

func TestPartnerPanicsOnAbsentAgent(t *testing.T) {
	s, _ := FromMMLP(sample())
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	s.Partner(0, 4)
}

func TestPeersDo(t *testing.T) {
	s, _ := FromMMLP(sample())
	var peers []int32
	s.PeersDo(1, func(w int32) { peers = append(peers, w) })
	if len(peers) != 2 || peers[0] != 0 || peers[1] != 2 {
		t.Fatalf("peers of 1 = %v", peers)
	}
	peers = nil
	s.PeersDo(3, func(w int32) { peers = append(peers, w) })
	if len(peers) != 1 || peers[0] != 4 {
		t.Fatalf("peers of 3 = %v", peers)
	}
}

func TestDegreesAndBranching(t *testing.T) {
	s, _ := FromMMLP(sample())
	if s.DegreeK() != 3 {
		t.Fatalf("DegreeK = %d", s.DegreeK())
	}
	if s.MaxConsPerAgent() != 2 {
		t.Fatalf("MaxConsPerAgent = %d", s.MaxConsPerAgent())
	}
}

func TestToMMLPRoundTrip(t *testing.T) {
	in := sample()
	s, _ := FromMMLP(in)
	back := s.ToMMLP()
	if back.NumAgents != in.NumAgents || len(back.Cons) != len(in.Cons) || len(back.Objs) != len(in.Objs) {
		t.Fatalf("round trip changed shape: %v vs %v", back.Stats(), in.Stats())
	}
	s2, err := FromMMLP(back)
	if err != nil {
		t.Fatalf("round trip not structured: %v", err)
	}
	for v := 0; v < s.N; v++ {
		if s2.Caps[v] != s.Caps[v] {
			t.Fatalf("caps changed at %d", v)
		}
	}
}

func TestUtilityAndViolation(t *testing.T) {
	s, _ := FromMMLP(sample())
	x := []float64{0.2, 0.3, 0.4, 0.5, 0.5}
	// Objective sums: 0.9 and 1.0 → utility 0.9.
	if got := s.Utility(x); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("utility = %v", got)
	}
	if v := s.MaxViolation(x); v != 0 {
		t.Fatalf("violation = %v for feasible x", v)
	}
	bad := []float64{1, 1, 0, 0, 0}
	// Constraint 0: 1 + 2 = 3 → violation 2.
	if v := s.MaxViolation(bad); math.Abs(v-2) > 1e-12 {
		t.Fatalf("violation = %v, want 2", v)
	}
	neg := []float64{-0.5, 0, 0, 0, 0}
	if v := s.MaxViolation(neg); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("violation = %v, want 0.5", v)
	}
}

// TestFromMMLPScratchBitIdentical reuses one conversion scratch across a
// stream of differently-sized structured instances and demands the compact
// form match the fresh conversion exactly, with results that stay intact
// only until the scratch's next use (hence the comparison happens before
// the next conversion).
func TestFromMMLPScratchBitIdentical(t *testing.T) {
	sc := &Scratch{}
	for trial := 0; trial < 20; trial++ {
		in := gen.RandomStructured(gen.StructuredConfig{
			Objectives: 5 + trial*3,
			MaxDegK:    2 + trial%3,
			ExtraCons:  trial * 2,
		}, int64(trial+1))
		want, err := FromMMLP(in)
		if err != nil {
			t.Fatalf("trial %d: fresh: %v", trial, err)
		}
		got, err := FromMMLPScratch(in, sc)
		if err != nil {
			t.Fatalf("trial %d: scratch: %v", trial, err)
		}
		if got.N != want.N ||
			!reflect.DeepEqual(got.ObjOf, want.ObjOf) ||
			!reflect.DeepEqual(got.Objs, want.Objs) ||
			!reflect.DeepEqual(got.ConsV, want.ConsV) ||
			!reflect.DeepEqual(got.ConsA, want.ConsA) ||
			!reflect.DeepEqual(got.ConsOf, want.ConsOf) ||
			!reflect.DeepEqual(got.Caps, want.Caps) {
			t.Fatalf("trial %d: scratch conversion diverged", trial)
		}
	}
}

// TestFromMMLPScratchErrors: the scratch path reports the same structural
// errors as the fresh path, and a failed conversion leaves the scratch
// usable.
func TestFromMMLPScratchErrors(t *testing.T) {
	sc := &Scratch{}
	bad := mmlp.New(2)
	bad.AddConstraint(0, 1, 1, 1)
	bad.AddObjective(0, 1) // singleton objective
	_, wantErr := FromMMLP(bad)
	_, gotErr := FromMMLPScratch(bad, sc)
	if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
		t.Fatalf("error mismatch: %v vs %v", gotErr, wantErr)
	}
	good := gen.RandomStructured(gen.StructuredConfig{Objectives: 4, MaxDegK: 2, ExtraCons: 2}, 7)
	if _, err := FromMMLPScratch(good, sc); err != nil {
		t.Fatalf("scratch unusable after error: %v", err)
	}
}

// TestFromMMLPScratchWarmAllocFree pins the conversion's steady-state heap
// behaviour.
func TestFromMMLPScratchWarmAllocFree(t *testing.T) {
	in := gen.RandomStructured(gen.StructuredConfig{Objectives: 30, MaxDegK: 3, ExtraCons: 15}, 3)
	sc := &Scratch{}
	if _, err := FromMMLPScratch(in, sc); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := FromMMLPScratch(in, sc); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Fatalf("warm FromMMLPScratch allocates %.1f objects", avg)
	}
}

// TestReweighted: an instance that differs from a structured base in
// constraint coefficients alone — a few rows reweighted, by factors up to
// 10^±300 and down to subnormal — gets exactly FromMMLP's compact form
// from the base's, which it leaves untouched; an invalid coefficient or
// any difference in agents, rows or objective coefficients is refused.
func TestReweighted(t *testing.T) {
	necklace, _, _ := gen.LayeredNecklace(9)
	for name, base := range map[string]*mmlp.Instance{
		"tri-necklace":      gen.TriNecklace(12),
		"layered-necklace":  necklace,
		"layered-tree":      gen.LayeredTree(4),
		"random-structured": gen.RandomStructured(gen.StructuredConfig{Objectives: 12, MaxDegK: 4, ExtraCons: 6}, 3),
	} {
		s, err := FromMMLP(base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		same := func(a, b *Instance) bool {
			return a.N == b.N && reflect.DeepEqual(a.ObjOf, b.ObjOf) && reflect.DeepEqual(a.Objs, b.Objs) &&
				reflect.DeepEqual(a.ConsV, b.ConsV) && reflect.DeepEqual(a.ConsA, b.ConsA) &&
				reflect.DeepEqual(a.ConsOf, b.ConsOf) && reflect.DeepEqual(a.Caps, b.Caps)
		}
		sc := &Scratch{}
		rng := rand.New(rand.NewSource(1))
		for trial := range 40 {
			// The same edit twice: as a deep copy, and copy-on-write —
			// fresh rows where edited, the rest shared with base.
			in := base.Clone()
			cow := &mmlp.Instance{NumAgents: base.NumAgents, Cons: slices.Clone(base.Cons), Objs: base.Objs}
			for range 1 + trial%4 {
				i := rng.Intn(len(in.Cons))
				for j := range in.Cons[i].Terms {
					in.Cons[i].Terms[j].Coef *= [...]float64{0.5, 3, 1e300, 1e-300, 1e-320, 0}[rng.Intn(6)]
				}
				cow.Cons[i].Terms = slices.Clone(in.Cons[i].Terms)
			}
			valid := in.Validate() == nil
			want, err := FromMMLP(in)
			for form, in := range map[string]*mmlp.Instance{"copy": in, "copy-on-write": cow} {
				got, ok := s.Reweighted(base, in, sc)
				if ok != valid {
					t.Fatalf("%s trial %d %s: Reweighted ok=%v for an instance with Validate ok=%v", name, trial, form, ok, valid)
				}
				if ok && (err != nil || !same(got, want)) {
					t.Fatalf("%s trial %d %s: Reweighted differs from FromMMLP (err %v)", name, trial, form, err)
				}
			}
		}
		for what, edit := range map[string]func(*mmlp.Instance){
			"agent moved":        func(in *mmlp.Instance) { in.Cons[0].Terms[0].Agent = in.Cons[1].Terms[1].Agent },
			"objective weighted": func(in *mmlp.Instance) { in.Objs[0].Terms[0].Coef = 2 },
			"row added":          func(in *mmlp.Instance) { in.AddConstraint(0, 1, 1, 1) },
			"agent added":        func(in *mmlp.Instance) { in.NumAgents++ },
			"infinite":           func(in *mmlp.Instance) { in.Cons[0].Terms[1].Coef = math.Inf(1) },
			"NaN":                func(in *mmlp.Instance) { in.Cons[0].Terms[1].Coef = math.NaN() },
			"negative":           func(in *mmlp.Instance) { in.Cons[0].Terms[1].Coef = -1 },
		} {
			in := base.Clone()
			edit(in)
			if _, ok := s.Reweighted(base, in, sc); ok {
				t.Fatalf("%s: Reweighted accepted an instance with %s", name, what)
			}
		}
		if want, _ := FromMMLP(base); !same(s, want) {
			t.Fatalf("%s: Reweighted changed the base's compact form", name)
		}
	}
}
