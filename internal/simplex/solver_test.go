package simplex

import (
	"math"
	"math/big"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestSolveBasicLE(t *testing.T) {
	// max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → opt 36 at (2,6).
	p := New(2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 5)
	p.AddRow(LE, 4, 0, 1)
	p.AddRow(LE, 12, 1, 2)
	p.AddRow(LE, 18, 0, 3, 1, 2)
	r := Solve(p)
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	approx(t, r.Value, 36, 1e-9, "value")
	approx(t, r.X[0], 2, 1e-9, "x")
	approx(t, r.X[1], 6, 1e-9, "y")
}

func TestSolveWithGEAndEQ(t *testing.T) {
	// max x + y s.t. x + y ≤ 10, x ≥ 2, y = 3 → opt at (7,3) value 10.
	p := New(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.AddRow(LE, 10, 0, 1, 1, 1)
	p.AddRow(GE, 2, 0, 1)
	p.AddRow(EQ, 3, 1, 1)
	r := Solve(p)
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	approx(t, r.Value, 10, 1e-9, "value")
	approx(t, r.X[1], 3, 1e-9, "y pinned by equality")
}

func TestSolveNegativeRHS(t *testing.T) {
	// max -x s.t. -x ≤ -2  (i.e. x ≥ 2) → opt -2 at x=2.
	p := New(1)
	p.SetObjective(0, -1)
	p.AddRow(LE, -2, 0, -1)
	r := Solve(p)
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	approx(t, r.Value, -2, 1e-9, "value")
	approx(t, r.X[0], 2, 1e-9, "x")
}

func TestSolveInfeasible(t *testing.T) {
	p := New(1)
	p.AddRow(LE, 1, 0, 1)
	p.AddRow(GE, 5, 0, 1)
	if r := Solve(p); r.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	p := New(2)
	p.SetObjective(0, 1)
	p.AddRow(LE, 5, 1, 1) // only y bounded
	if r := Solve(p); r.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", r.Status)
	}
}

func TestSolveDegenerate(t *testing.T) {
	// A classic degenerate LP; Bland's rule must terminate.
	// max 10x1 - 57x2 - 9x3 - 24x4 (Kuhn's cycling example without Bland).
	p := New(4)
	for j, c := range []float64{10, -57, -9, -24} {
		p.SetObjective(j, c)
	}
	p.AddRow(LE, 0, 0, 0.5, 1, -5.5, 2, -2.5, 3, 9)
	p.AddRow(LE, 0, 0, 0.5, 1, -1.5, 2, -0.5, 3, 1)
	p.AddRow(LE, 1, 0, 1)
	r := Solve(p)
	if r.Status != Optimal {
		t.Fatalf("status = %v, want optimal", r.Status)
	}
	approx(t, r.Value, 1, 1e-9, "Kuhn example optimum")
}

func TestSolveZeroObjective(t *testing.T) {
	p := New(2)
	p.AddRow(LE, 1, 0, 1, 1, 1)
	r := Solve(p)
	if r.Status != Optimal || r.Value != 0 {
		t.Fatalf("zero objective: %v value %v", r.Status, r.Value)
	}
}

func TestSolveEqualityOnlySystem(t *testing.T) {
	// x + y = 4, x - y = 0 … but x-y=0 with x,y≥0 → x=y=2; maximize x.
	p := New(2)
	p.SetObjective(0, 1)
	p.AddRow(EQ, 4, 0, 1, 1, 1)
	p.AddRow(EQ, 0, 0, 1, 1, -1)
	r := Solve(p)
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	approx(t, r.X[0], 2, 1e-9, "x")
	approx(t, r.X[1], 2, 1e-9, "y")
}

func TestSolveRedundantRows(t *testing.T) {
	// Duplicate equalities leave a basic artificial in a redundant row;
	// evictArtificials must cope.
	p := New(2)
	p.SetObjective(0, 1)
	p.AddRow(EQ, 2, 0, 1, 1, 1)
	p.AddRow(EQ, 2, 0, 1, 1, 1)
	p.AddRow(LE, 3, 0, 1)
	r := Solve(p)
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	approx(t, r.Value, 2, 1e-9, "value")
}

func TestSolveRatExactness(t *testing.T) {
	// max x + y s.t. 3x + y ≤ 1, x + 3y ≤ 1 → x = y = 1/4, value 1/2.
	p := New(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.AddRow(LE, 1, 0, 3, 1, 1)
	p.AddRow(LE, 1, 0, 1, 1, 3)
	r := SolveRat(p)
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Value.Cmp(big.NewRat(1, 2)) != 0 {
		t.Fatalf("value = %v, want exactly 1/2", r.Value)
	}
	if r.X[0].Cmp(big.NewRat(1, 4)) != 0 {
		t.Fatalf("x = %v, want exactly 1/4", r.X[0])
	}
}

func TestSolveRatInfeasibleAndUnbounded(t *testing.T) {
	p := New(1)
	p.AddRow(LE, 1, 0, 1)
	p.AddRow(GE, 2, 0, 1)
	if r := SolveRat(p); r.Status != Infeasible {
		t.Fatalf("status = %v", r.Status)
	}
	q := New(1)
	q.SetObjective(0, 1)
	if r := SolveRat(q); r.Status != Unbounded {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestAddRowPanicsOnOddPairs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(1).AddRow(LE, 1, 0)
}

func TestRelationAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || EQ.String() != "==" || GE.String() != ">=" {
		t.Fatal("relation strings wrong")
	}
	if Relation(9).String() == "" {
		t.Fatal("unknown relation should render")
	}
	for s, want := range map[Status]string{Optimal: "optimal", Infeasible: "infeasible", Unbounded: "unbounded", Stalled: "stalled"} {
		if s.String() != want {
			t.Fatalf("Status(%d).String() = %q", s, s.String())
		}
	}
	if Status(9).String() == "" {
		t.Fatal("unknown status should render")
	}
}

func TestFeasible(t *testing.T) {
	p := New(1)
	p.AddRow(GE, 1, 0, 1)
	p.AddRow(LE, 2, 0, 1)
	if !Feasible(p, 1e-9) {
		t.Fatal("feasible system rejected")
	}
	p.AddRow(LE, 0.5, 0, 1)
	if Feasible(p, 1e-9) {
		t.Fatal("infeasible system accepted")
	}
}
