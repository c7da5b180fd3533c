package simplex

import "math/big"

// maxPivots bounds the number of pivots per phase. Bland's rule guarantees
// termination in exact arithmetic; the cap protects the float path against
// tolerance-induced cycling.
const maxPivots = 200000

// Result is the outcome of a float64 solve.
type Result struct {
	Status Status
	X      []float64
	Value  float64
}

// RatResult is the outcome of an exact rational solve.
type RatResult struct {
	Status Status
	X      []*big.Rat
	Value  *big.Rat
}

// Solve runs two-phase primal simplex in float64 arithmetic with Bland's
// rule. The default tolerance of 1e-9 suits coefficients of moderate
// magnitude; see SolveTol for control.
func Solve(p *Problem) Result { return SolveTol(p, 1e-9) }

// SolveTol is Solve with an explicit absolute tolerance for zero tests.
func SolveTol(p *Problem, eps float64) Result {
	st, xs, val := run[float64](floatArith{eps: eps}, p)
	return Result{Status: st, X: xs, Value: val}
}

// SolveRat runs the identical algorithm in exact rational arithmetic.
// Coefficients are converted from float64 exactly. Exponentially slower than
// the float path; intended for cross-checks on small instances.
func SolveRat(p *Problem) RatResult {
	st, xs, val := run[*big.Rat](ratArith{}, p)
	return RatResult{Status: st, X: xs, Value: val}
}

// tableau holds the dense simplex tableau over an arbitrary field T.
//
// Layout: columns 0..nStruct-1 are the problem's variables, then slack and
// surplus columns, then artificial columns; column ncols is the RHS.
// rows 0..m-1 are constraints; obj1 and obj2 are the phase-1 and phase-2
// reduced-cost rows, updated through every pivot.
type tableau[T any] struct {
	ar       arith[T]
	m        int
	ncols    int
	nStruct  int
	artStart int       // first artificial column; ncols when none
	plans    []rowPlan // one per constraint row
	a        [][]T     // m rows × (ncols+1)
	obj1     []T       // phase-1 reduced costs (maximise −Σ artificials)
	obj2     []T       // phase-2 reduced costs (maximise c·x)
	basis    []int
}

// rowPlan is the column layout build gives one row. A row with a negative
// right-hand side is flipped (negated, so ≤ and ≥ swap) to make it
// nonnegative. After the flip a ≤ row owns a slack column, a ≥ row a
// surplus column and an artificial one, an = row only an artificial one.
// An absent column is −1.
type rowPlan struct {
	flip     bool
	slackCol int
	slackSgn int // +1 slack, −1 surplus, 0 none
	artCol   int
}

// run executes the two-phase algorithm and extracts the solution.
func run[T any](ar arith[T], p *Problem) (Status, []T, T) {
	t := build(ar, p)
	if st := t.solve(); st != Optimal {
		return st, nil, ar.zero()
	}
	xs, val := t.primal()
	return Optimal, xs, val
}

// solve runs the two phases: phase 1 while artificials are basic, the
// eviction of those left at zero, then phase 2.
func (t *tableau[T]) solve() Status {
	if t.artStart < t.ncols { // phase 1 needed
		st := t.iterate(t.obj1, t.ncols) // artificials may enter in phase 1
		if st == Stalled {
			return Stalled
		}
		// Phase-1 optimum must be 0 (the stored value is −Σ artificials).
		if t.ar.sign(t.obj1[t.ncols]) != 0 {
			return Infeasible
		}
		t.evictArtificials()
	}
	return t.iterate(t.obj2, t.artStart) // artificials barred from entering
}

// primal reads the structural variables and the optimum off an optimal
// tableau.
func (t *tableau[T]) primal() ([]T, T) {
	ar := t.ar
	xs := make([]T, t.nStruct)
	for j := range xs {
		xs[j] = ar.zero()
	}
	for i, b := range t.basis {
		if b < t.nStruct {
			xs[b] = ar.clone(t.a[i][t.ncols])
		}
	}
	return xs, ar.clone(t.obj2[t.ncols])
}

// build assembles the initial tableau with a feasible slack/artificial basis.
func build[T any](ar arith[T], p *Problem) *tableau[T] {
	m := len(p.Rows)
	n := p.NumVars

	// Column plan: slack and surplus columns in row order, then the
	// artificials of the rows whose initial basic variable would be
	// infeasible — every row without a slack.
	plans := make([]rowPlan, m)
	col := n
	for i, row := range p.Rows {
		pl := rowPlan{flip: row.RHS < 0, slackCol: -1, artCol: -1}
		if row.Rel != EQ {
			pl.slackCol, pl.slackSgn = col, 1
			if (row.Rel == GE) != pl.flip {
				pl.slackSgn = -1
			}
			col++
		}
		plans[i] = pl
	}
	artStart := col
	for i := range plans {
		if plans[i].slackSgn <= 0 {
			plans[i].artCol = col
			col++
		}
	}
	ncols := col

	t := &tableau[T]{ar: ar, m: m, ncols: ncols, nStruct: n, artStart: artStart, plans: plans}
	t.a = make([][]T, m)
	t.basis = make([]int, m)
	for i := range t.a {
		t.a[i] = make([]T, ncols+1)
		for j := range t.a[i] {
			t.a[i][j] = ar.zero()
		}
	}
	for i, row := range p.Rows {
		pl := plans[i]
		sgn := 1.0
		if pl.flip {
			sgn = -1
		}
		for _, e := range row.Entries {
			t.a[i][e.Var] = ar.add(t.a[i][e.Var], ar.fromFloat(sgn*e.Coef))
		}
		t.a[i][ncols] = ar.fromFloat(sgn * row.RHS)
		if c := pl.slackCol; c >= 0 {
			t.a[i][c] = ar.fromFloat(float64(pl.slackSgn))
		}
		if c := pl.artCol; c >= 0 {
			t.a[i][c] = ar.fromFloat(1)
			t.basis[i] = c
		} else {
			t.basis[i] = pl.slackCol
		}
	}

	// Reduced-cost rows. obj2[j] starts at −c_j (so that a negative entry
	// marks an improving column for maximisation); the initial basis has
	// zero phase-2 cost, so no pricing-out is needed. obj1 prices out the
	// artificial basics: start from Σ over artificial columns of −1·(−1)=+1
	// … equivalently obj1 = Σ_{rows with artificial} −(row), because each
	// artificial has phase-1 cost −1 and is basic.
	t.obj1 = make([]T, ncols+1)
	t.obj2 = make([]T, ncols+1)
	for j := 0; j <= ncols; j++ {
		t.obj1[j] = ar.zero()
		t.obj2[j] = ar.zero()
	}
	for j := 0; j < n; j++ {
		t.obj2[j] = ar.fromFloat(-p.Objective[j])
	}
	for i, pl := range plans {
		if pl.artCol < 0 {
			continue
		}
		for j := 0; j <= ncols; j++ {
			t.obj1[j] = ar.sub(t.obj1[j], t.a[i][j])
		}
		// The artificial column itself, basic in this row alone, prices
		// to zero (the sum left −1 there; its cost −(−1) restores 0).
		t.obj1[pl.artCol] = ar.zero()
	}
	return t
}

// iterate runs simplex pivots with Bland's rule on the given reduced-cost
// row until optimality, unboundedness or the pivot cap. Columns ≥ colLimit
// may not enter the basis (used to bar artificials in phase 2).
func (t *tableau[T]) iterate(obj []T, colLimit int) Status {
	ar := t.ar
	for pivots := 0; pivots < maxPivots; pivots++ {
		// Bland entering rule: smallest improving column index.
		enter := -1
		for j := 0; j < colLimit; j++ {
			if ar.sign(obj[j]) < 0 {
				enter = j
				break
			}
		}
		if enter == -1 {
			return Optimal
		}
		// Ratio test; Bland tie-break on the smallest basis variable.
		leave := -1
		var best T
		for i := 0; i < t.m; i++ {
			piv := t.a[i][enter]
			if ar.sign(piv) <= 0 {
				continue
			}
			ratio := ar.div(t.a[i][t.ncols], piv)
			if leave == -1 || ar.less(ratio, best) ||
				(!ar.less(best, ratio) && t.basis[i] < t.basis[leave]) {
				leave, best = i, ratio
			}
		}
		if leave == -1 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
	return Stalled
}

// pivot makes column enter basic in row leave, updating all rows and both
// reduced-cost rows.
func (t *tableau[T]) pivot(leave, enter int) {
	ar := t.ar
	prow := t.a[leave]
	inv := ar.div(ar.fromFloat(1), prow[enter])
	for j := 0; j <= t.ncols; j++ {
		prow[j] = ar.mul(prow[j], inv)
	}
	prow[enter] = ar.fromFloat(1) // exact, clears float residue
	elim := func(row []T) {
		f := row[enter]
		if ar.sign(f) == 0 && ar.toFloat(f) == 0 {
			return
		}
		for j := 0; j <= t.ncols; j++ {
			row[j] = ar.sub(row[j], ar.mul(f, prow[j]))
		}
		row[enter] = ar.zero() // exact
	}
	for i := 0; i < t.m; i++ {
		if i != leave {
			elim(t.a[i])
		}
	}
	elim(t.obj1)
	elim(t.obj2)
	t.basis[leave] = enter
}

// evictArtificials pivots any artificial variable that is still basic (at
// value zero after a feasible phase 1) out of the basis when a structural or
// slack column with a nonzero coefficient exists in its row. Rows that admit
// no such pivot are redundant and remain inert.
func (t *tableau[T]) evictArtificials() {
	ar := t.ar
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		for j := 0; j < t.artStart; j++ {
			if ar.sign(t.a[i][j]) != 0 {
				t.pivot(i, j)
				break
			}
		}
	}
}

// Feasible reports whether the problem has any feasible point, using
// phase 1 only (float64 arithmetic, tolerance eps).
func Feasible(p *Problem, eps float64) bool {
	q := &Problem{NumVars: p.NumVars, Objective: make([]float64, p.NumVars), Rows: p.Rows}
	r := SolveTol(q, eps)
	return r.Status == Optimal
}
