package simplex

import (
	"fmt"
	"math"

	"repro/internal/mmlp"
)

// SolveWithDuals runs the float64 simplex and additionally extracts the
// optimal dual values, one per row. For a maximisation problem the duals
// satisfy (when Status == Optimal):
//
//	strong duality:      Σ_i y_i b_i = optimum,
//	dual feasibility:    Σ_i y_i a_ij ≥ c_j for every variable j,
//	sign conventions:    y_i ≥ 0 for ≤ rows, y_i ≤ 0 for ≥ rows, free for =.
//
// The duals are read off the final reduced-cost row of the tableau the
// solve ran on, at the columns its row plan names: a slack column prices
// to exactly y_i (cost 0, unit coefficient), a surplus column to −y_i, and
// the artificial column of an = row to y_i; a flipped row negates its
// dual.
func SolveWithDuals(p *Problem) (Result, []float64) {
	t := build[float64](floatArith{eps: 1e-9}, p)
	if st := t.solve(); st != Optimal {
		return Result{Status: st}, nil
	}
	xs, val := t.primal()
	duals := make([]float64, len(p.Rows))
	for i, pl := range t.plans {
		col, sgn := pl.artCol, 1.0
		if pl.slackCol >= 0 {
			col, sgn = pl.slackCol, float64(pl.slackSgn)
		}
		if pl.flip {
			sgn = -sgn
		}
		duals[i] = sgn * t.obj2[col]
	}
	return Result{Status: Optimal, X: xs, Value: val}, duals
}

// MaxMinCertificate is a self-contained upper-bound proof for a max-min
// LP, extracted from the optimal duals of the FromMaxMin reduction. With
// yCons ≥ 0 (one weight per constraint row) and yObjs ≥ 0 (one per
// objective row) satisfying
//
//	Σ_k yObjs_k ≥ 1                                (ω is covered)
//	Σ_i yCons_i a_iv ≥ Σ_k yObjs_k c_kv  ∀ agent v (agents priced out)
//
// every feasible solution has ω ≤ Σ_i yCons_i =: Bound. Verify re-checks
// the inequalities from scratch, so a certificate can be validated without
// trusting the solver.
type MaxMinCertificate struct {
	YCons []float64
	YObjs []float64
	Bound float64
}

// CertifyMaxMin solves the instance and returns the optimal solution
// together with a dual certificate of its optimality.
func CertifyMaxMin(in *mmlp.Instance) (Result, *MaxMinCertificate, error) {
	if len(in.Objs) == 0 {
		return Result{Status: Unbounded}, nil, fmt.Errorf("simplex: no objectives")
	}
	p := FromMaxMin(in)
	res, duals := SolveWithDuals(p)
	if res.Status != Optimal {
		return res, nil, fmt.Errorf("simplex: %v", res.Status)
	}
	cert := &MaxMinCertificate{
		YCons: make([]float64, len(in.Cons)),
		YObjs: make([]float64, len(in.Objs)),
	}
	for i := range in.Cons {
		y := duals[i]
		if y < 0 {
			y = 0 // clip float noise; Verify re-checks soundness
		}
		cert.YCons[i] = y
		cert.Bound += y
	}
	for k := range in.Objs {
		y := duals[len(in.Cons)+k]
		if y < 0 {
			y = 0
		}
		cert.YObjs[k] = y
	}
	res.X = res.X[:in.NumAgents]
	return res, cert, nil
}

// Verify checks the certificate inequalities directly against the
// instance, with additive tolerance tol, and confirms Bound = Σ yCons.
func (c *MaxMinCertificate) Verify(in *mmlp.Instance, tol float64) error {
	if len(c.YCons) != len(in.Cons) || len(c.YObjs) != len(in.Objs) {
		return fmt.Errorf("simplex: certificate shape mismatch")
	}
	sumY := 0.0
	for i, y := range c.YCons {
		if y < -tol {
			return fmt.Errorf("simplex: negative constraint weight %d", i)
		}
		sumY += y
	}
	if math.Abs(sumY-c.Bound) > tol*math.Max(1, c.Bound) {
		return fmt.Errorf("simplex: bound %v != Σ y = %v", c.Bound, sumY)
	}
	cover := 0.0
	for k, y := range c.YObjs {
		if y < -tol {
			return fmt.Errorf("simplex: negative objective weight %d", k)
		}
		cover += y
	}
	if cover < 1-tol {
		return fmt.Errorf("simplex: objective weights cover only %v < 1", cover)
	}
	// Agents priced out: Σ_i y_i a_iv − Σ_k y_k c_kv ≥ 0.
	price := make([]float64, in.NumAgents)
	for i, cRow := range in.Cons {
		for _, t := range cRow.Terms {
			price[t.Agent] += c.YCons[i] * t.Coef
		}
	}
	for k, o := range in.Objs {
		for _, t := range o.Terms {
			price[t.Agent] -= c.YObjs[k] * t.Coef
		}
	}
	for v, pv := range price {
		if pv < -tol {
			return fmt.Errorf("simplex: agent %d priced at %v < 0", v, pv)
		}
	}
	return nil
}
