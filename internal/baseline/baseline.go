// Package baseline implements the comparison algorithms of the paper's
// prior-work discussion (§1.3): the safe algorithm of [8, 16], which is a
// factor-ΔI local approximation and was the best known local algorithm for
// general max-min LPs before this paper, and the optimal local algorithms
// for the trivial cases ΔI = 1 and ΔK = 1 from [17].
package baseline

import (
	"math"

	"repro/internal/mmlp"
)

// SolveSafe runs the safe algorithm of [8, 16]:
//
//	x_v = min_{i∈Iv} 1 / (|Vi| · a_iv).
//
// Feasibility is immediate (each constraint's load is at most
// Σ_{v∈Vi} 1/|Vi| = 1), and since any feasible y has
// y_v ≤ min_i 1/a_iv ≤ ΔI · x_v, the utility is within factor ΔI of the
// optimum. The local horizon is 2 rounds (each agent needs |Vi| from its
// constraints). Agents with no constraints keep x_v = +Inf capped to the
// trivial bound via their objectives — callers should preprocess degenerate
// instances first; for strictly valid instances every x_v is finite.
func SolveSafe(in *mmlp.Instance) []float64 {
	x := make([]float64, in.NumAgents)
	for v := range x {
		x[v] = math.Inf(1)
	}
	for _, c := range in.Cons {
		size := float64(len(c.Terms))
		for _, t := range c.Terms {
			if cand := 1 / (size * t.Coef); cand < x[t.Agent] {
				x[t.Agent] = cand
			}
		}
	}
	return x
}

// SolveSingletonConstraints is the optimal local algorithm for ΔI = 1
// ([17]): with every constraint private to one agent, the caps are
// independent, objectives are monotone in every variable, and x_v = cap_v
// is optimal. Horizon: 1 round.
func SolveSingletonConstraints(in *mmlp.Instance) []float64 {
	return in.Caps()
}

// SolveSingletonObjectives is the optimal local algorithm for ΔK = 1
// ([17]): every objective k reads a single agent v(k), so after
// normalising, the instance asks to maximise min_v γ_v x_v for the agents
// that appear in objectives. Setting
//
//	x_v = ω_v / γ_v,  ω_v = min_{i∈Iv} 1 / Σ_{w∈Vi} a_iw/γ_w
//
// is feasible (inside constraint i every member uses ω ≤ ω_i of the
// capacity profile) and attains utility min_v ω_v, which equals the global
// optimum min_i ω_i. Agents outside every objective are set to 0; an agent
// in several singleton objectives takes γ_v as the smallest coefficient
// among them, since the smallest-coefficient objective is the binding one.
//
// The function requires ΔK ≤ 1 (it panics otherwise) and a strictly valid
// instance (every agent constrained).
func SolveSingletonObjectives(in *mmlp.Instance) []float64 {
	gamma := make([]float64, in.NumAgents)
	for _, o := range in.Objs {
		if len(o.Terms) != 1 {
			panic("baseline: SolveSingletonObjectives requires ΔK = 1")
		}
		t := o.Terms[0]
		if gamma[t.Agent] == 0 || t.Coef < gamma[t.Agent] {
			gamma[t.Agent] = t.Coef
		}
	}
	// Per-constraint level: the largest ω such that every member of the
	// constraint can afford x_w = ω/γ_w simultaneously.
	x := make([]float64, in.NumAgents)
	omega := make([]float64, in.NumAgents)
	for v := range omega {
		omega[v] = math.Inf(1)
	}
	for _, c := range in.Cons {
		demand := 0.0
		for _, t := range c.Terms {
			if gamma[t.Agent] > 0 {
				demand += t.Coef / gamma[t.Agent]
			}
		}
		if demand == 0 {
			continue
		}
		level := 1 / demand
		for _, t := range c.Terms {
			if level < omega[t.Agent] {
				omega[t.Agent] = level
			}
		}
	}
	for v := range x {
		if gamma[v] == 0 || math.IsInf(omega[v], 1) {
			x[v] = 0
			continue
		}
		x[v] = omega[v] / gamma[v]
	}
	return x
}
