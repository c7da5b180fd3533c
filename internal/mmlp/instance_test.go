package mmlp

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"testing"
)

// triangle returns a small instance with three agents, three pairwise
// constraints and two objectives; used by several tests.
func triangle() *Instance {
	in := New(3)
	in.AddConstraint(0, 1, 1, 1)   // x0 + x1 ≤ 1
	in.AddConstraint(1, 1, 2, 1)   // x1 + x2 ≤ 1
	in.AddConstraint(0, 2, 2, 0.5) // 2 x0 + 0.5 x2 ≤ 1
	in.AddObjective(0, 1, 1, 1)    // x0 + x1
	in.AddObjective(1, 1, 2, 3)    // x1 + 3 x2
	return in
}

func TestAddersBuildRows(t *testing.T) {
	in := triangle()
	if len(in.Cons) != 3 || len(in.Objs) != 2 {
		t.Fatalf("got %d cons, %d objs", len(in.Cons), len(in.Objs))
	}
	if in.Cons[2].Terms[0].Coef != 2 || in.Cons[2].Terms[1].Coef != 0.5 {
		t.Fatalf("constraint 2 coefficients wrong: %+v", in.Cons[2])
	}
}

func TestAddConstraintOddPairsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for odd pair list")
		}
	}()
	New(1).AddConstraint(0, 1, 2)
}

func TestValidateAccepts(t *testing.T) {
	if err := triangle().Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	if err := triangle().ValidateStrict(); err != nil {
		t.Fatalf("strictly valid instance rejected: %v", err)
	}
}

func TestValidateRejectsBadAgent(t *testing.T) {
	in := New(2)
	in.AddConstraint(5, 1)
	if err := in.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("want ErrInvalid, got %v", err)
	}
}

func TestValidateRejectsNonPositiveCoef(t *testing.T) {
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		in := New(1)
		in.AddObjective(0, bad)
		if err := in.Validate(); !errors.Is(err, ErrInvalid) {
			t.Fatalf("coef %v: want ErrInvalid, got %v", bad, err)
		}
	}
}

func TestValidateRejectsDuplicateAgent(t *testing.T) {
	in := New(2)
	in.Cons = append(in.Cons, Constraint{Terms: []Term{{0, 1}, {0, 2}}})
	if err := in.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("want ErrInvalid, got %v", err)
	}
}

func TestValidateRejectsNegativeAgentCount(t *testing.T) {
	in := &Instance{NumAgents: -1}
	if err := in.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("want ErrInvalid, got %v", err)
	}
}

func TestValidateStrictRejectsDegenerates(t *testing.T) {
	empty := New(1)
	empty.Cons = append(empty.Cons, Constraint{})
	empty.AddObjective(0, 1)
	if err := empty.ValidateStrict(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty constraint: want ErrInvalid, got %v", err)
	}

	unconstrained := New(1)
	unconstrained.AddObjective(0, 1)
	if err := unconstrained.ValidateStrict(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unconstrained agent: want ErrInvalid, got %v", err)
	}

	noObj := New(1)
	noObj.AddConstraint(0, 1)
	if err := noObj.ValidateStrict(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("non-contributing agent: want ErrInvalid, got %v", err)
	}
}

func TestDegrees(t *testing.T) {
	in := triangle()
	if got := in.DegreeI(); got != 2 {
		t.Fatalf("DegreeI = %d, want 2", got)
	}
	if got := in.DegreeK(); got != 2 {
		t.Fatalf("DegreeK = %d, want 2", got)
	}
	if got := New(0).DegreeI(); got != 0 {
		t.Fatalf("empty DegreeI = %d, want 0", got)
	}
}

func TestIncidence(t *testing.T) {
	inc := triangle().Incidence()
	wantCons := [][]int{{0, 2}, {0, 1}, {1, 2}}
	for v, want := range wantCons {
		got := inc.ConsOf[v]
		if len(got) != len(want) {
			t.Fatalf("ConsOf[%d] = %v, want %v", v, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("ConsOf[%d] = %v, want %v", v, got, want)
			}
		}
	}
	if len(inc.ObjsOf[1]) != 2 {
		t.Fatalf("ObjsOf[1] = %v, want two entries", inc.ObjsOf[1])
	}
}

func TestCaps(t *testing.T) {
	caps := triangle().Caps()
	// Agent 0: constraints with a=1 and a=2 → cap 1/2.
	if caps[0] != 0.5 {
		t.Fatalf("caps[0] = %v, want 0.5", caps[0])
	}
	// Agent 2: a=1 and a=0.5 → cap 1.
	if caps[2] != 1 {
		t.Fatalf("caps[2] = %v, want 1", caps[2])
	}
	free := New(1)
	free.AddObjective(0, 1)
	if !math.IsInf(free.Caps()[0], 1) {
		t.Fatal("unconstrained agent should have infinite cap")
	}
}

func TestTrivialUpperBound(t *testing.T) {
	in := triangle()
	// caps = [0.5, 1, 1]; objective 0: 0.5+1 = 1.5; objective 1: 1+3 = 4.
	if got := in.TrivialUpperBound(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("TrivialUpperBound = %v, want 1.5", got)
	}
	if !math.IsInf(New(1).TrivialUpperBound(), 1) {
		t.Fatal("no objectives should give +Inf bound")
	}
}

func TestEvaluation(t *testing.T) {
	in := triangle()
	x := []float64{0.25, 0.5, 0.25}
	if got := in.ConstraintValue(0, x); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("ConstraintValue(0) = %v", got)
	}
	if got := in.ObjectiveValue(1, x); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("ObjectiveValue(1) = %v", got)
	}
	if got := in.Utility(x); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Utility = %v, want 0.75", got)
	}
	if got := New(2).Utility([]float64{1, 1}); !math.IsInf(got, 1) {
		t.Fatalf("utility without objectives = %v, want +Inf", got)
	}
}

func TestMaxViolationAndCheckFeasible(t *testing.T) {
	in := triangle()
	ok := []float64{0.25, 0.5, 0.25}
	if v := in.MaxViolation(ok); v != 0 {
		t.Fatalf("feasible point has violation %v", v)
	}
	if err := in.CheckFeasible(ok, 0); err != nil {
		t.Fatalf("feasible point rejected: %v", err)
	}
	bad := []float64{1, 1, 0}
	if v := in.MaxViolation(bad); math.Abs(v-1) > 1e-12 {
		t.Fatalf("violation = %v, want 1", v)
	}
	if err := in.CheckFeasible(bad, 1e-9); err == nil {
		t.Fatal("infeasible point accepted")
	}
	neg := []float64{-0.1, 0, 0}
	if err := in.CheckFeasible(neg, 1e-9); err == nil {
		t.Fatal("negative point accepted")
	}
	if err := in.CheckFeasible([]float64{0}, 0); err == nil {
		t.Fatal("wrong-length vector accepted")
	}
}

func TestStrictify(t *testing.T) {
	in := triangle()
	x := []float64{1.2, 0.9, -0.3}
	y := in.Strictify(x)
	if err := in.CheckFeasible(y, 0); err != nil {
		t.Fatalf("strictified point infeasible: %v", err)
	}
	// A feasible point must come back unchanged.
	ok := []float64{0.25, 0.5, 0.25}
	z := in.Strictify(ok)
	for v := range ok {
		if z[v] != ok[v] {
			t.Fatalf("Strictify changed a feasible point: %v -> %v", ok, z)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := triangle()
	cp := in.Clone()
	cp.Cons[0].Terms[0].Coef = 99
	cp.Objs[0].Terms[0].Coef = 99
	if in.Cons[0].Terms[0].Coef == 99 || in.Objs[0].Terms[0].Coef == 99 {
		t.Fatal("Clone shares term storage with the original")
	}
}

func TestStats(t *testing.T) {
	st := triangle().Stats()
	if st.Agents != 3 || st.Constraints != 3 || st.Objectives != 2 {
		t.Fatalf("stats counts wrong: %+v", st)
	}
	if st.Edges != 6+4 {
		t.Fatalf("edges = %d, want 10", st.Edges)
	}
	if st.MaxConsPerAgent != 2 || st.MaxObjsPerAgent != 2 {
		t.Fatalf("per-agent maxima wrong: %+v", st)
	}
	if st.String() == "" {
		t.Fatal("Stats.String is empty")
	}
}

func TestSortTerms(t *testing.T) {
	in := New(3)
	in.Cons = append(in.Cons, Constraint{Terms: []Term{{2, 1}, {0, 1}, {1, 1}}})
	in.Objs = append(in.Objs, Objective{Terms: []Term{{1, 1}, {0, 1}}})
	in.SortTerms()
	for j, want := range []int{0, 1, 2} {
		if in.Cons[0].Terms[j].Agent != want {
			t.Fatalf("constraint terms not sorted: %+v", in.Cons[0].Terms)
		}
	}
	if in.Objs[0].Terms[0].Agent != 0 {
		t.Fatalf("objective terms not sorted: %+v", in.Objs[0].Terms)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := triangle()
	var buf bytes.Buffer
	if err := in.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.NumAgents != in.NumAgents || len(out.Cons) != len(in.Cons) || len(out.Objs) != len(in.Objs) {
		t.Fatalf("round trip changed shape: %+v", out.Stats())
	}
	if out.Cons[2].Terms[1].Coef != 0.5 {
		t.Fatalf("round trip changed coefficients: %+v", out.Cons[2])
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, err := Decode(bytes.NewBufferString(`{"num_agents":1,"constraints":[{"terms":[{"agent":7,"coef":1}]}]}`)); err == nil {
		t.Fatal("invalid instance decoded without error")
	}
	if _, err := Decode(bytes.NewBufferString(`not json`)); err == nil {
		t.Fatal("garbage decoded without error")
	}
	if _, err := Decode(bytes.NewBufferString(`{"num_agents":1,"constraints":[{"terms":[{"agent":0,"coef":1}]}]} trailing garbage`)); err == nil {
		t.Fatal("trailing data after the instance decoded without error")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inst.json")
	in := triangle()
	if err := in.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if out.Stats() != in.Stats() {
		t.Fatalf("file round trip changed stats: %v vs %v", out.Stats(), in.Stats())
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file read without error")
	}
}
