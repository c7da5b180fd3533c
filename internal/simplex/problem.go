// Package simplex is the linear-programming substrate of the repository: a
// from-scratch, dependency-free two-phase primal simplex solver with Bland's
// anti-cycling rule, available both in float64 and in exact rational
// arithmetic (math/big.Rat).
//
// The paper needs an LP solver in two places: as the reference that computes
// exact optima of max-min LPs (so experiments can measure true approximation
// ratios), and as the cross-check for the per-agent optimum t_u of the
// alternating-tree LP of §5.2, which the local algorithm otherwise obtains
// by binary search.
//
// One two-phase routine over one column plan serves every solve: build lays
// out each row's slack, surplus and artificial columns on the tableau, and
// the float, rational and dual-certified solves all pivot on it.
// SolveWithDuals reads each row's dual off the column that plan names, so
// the LP-duality certificate behind CertifyMaxMin comes from the very
// tableau the solve ran on.
package simplex

import "fmt"

// Relation is the sense of one LP row.
type Relation int8

// Row senses.
const (
	LE Relation = iota // Σ a_j x_j ≤ b
	EQ                 // Σ a_j x_j = b
	GE                 // Σ a_j x_j ≥ b
)

// String names the relation.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	}
	return fmt.Sprintf("Relation(%d)", int8(r))
}

// Entry is one nonzero coefficient of a row.
type Entry struct {
	Var  int
	Coef float64
}

// Row is one linear constraint.
type Row struct {
	Entries []Entry
	Rel     Relation
	RHS     float64
}

// Problem is an LP in the form
//
//	maximise  Σ c_j x_j
//	subject to the rows, and x ≥ 0.
//
// Build it with New, AddRow and SetObjective.
type Problem struct {
	NumVars   int
	Objective []float64
	Rows      []Row
}

// New returns an empty problem with n nonnegative variables and an all-zero
// objective.
func New(n int) *Problem {
	return &Problem{NumVars: n, Objective: make([]float64, n)}
}

// SetObjective sets the coefficient of variable j in the maximisation
// objective.
func (p *Problem) SetObjective(j int, c float64) { p.Objective[j] = c }

// AddRow appends a constraint given as alternating (var, coef) pairs,
// a relation and a right-hand side, and returns the row index.
func (p *Problem) AddRow(rel Relation, rhs float64, pairs ...float64) int {
	if len(pairs)%2 != 0 {
		panic("simplex: odd (var, coef) pair list")
	}
	row := Row{Rel: rel, RHS: rhs}
	for j := 0; j < len(pairs); j += 2 {
		row.Entries = append(row.Entries, Entry{Var: int(pairs[j]), Coef: pairs[j+1]})
	}
	p.Rows = append(p.Rows, row)
	return len(p.Rows) - 1
}

// Status is the outcome of a solve.
type Status int

// Solver outcomes.
const (
	// Optimal: an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible: the constraint set is empty.
	Infeasible
	// Unbounded: the objective can be made arbitrarily large.
	Unbounded
	// Stalled: the iteration limit was exceeded (should not occur with
	// Bland's rule; kept as a defensive outcome for the float path).
	Stalled
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Stalled:
		return "stalled"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}
