package core

import "repro/internal/structured"

// Ablation switches off individual design elements of the algorithm so the
// experiments can show each one is load-bearing. All combinations still
// terminate; what breaks is feasibility or the approximation guarantee.
type Ablation struct {
	// NoSmoothing replaces s_v by t_v, skipping §5.3's minimum over the
	// radius-(4r+2) ball. This invalidates inequality (17) (s_w ≤ t_u for
	// every u near w), on which Lemmas 4–5 — and hence the feasibility
	// proof — depend: the output can violate constraints.
	NoSmoothing bool
	// Role selects the output formula:
	//   RoleAveraged — the paper's (18), the average of both role guesses;
	//   RoleDown     — x_v = (1/R) Σ_d g+_{v,d}, i.e. every agent assumes
	//                  it is a down-agent;
	//   RoleUp       — x_v = (1/R) Σ_d g−_{v,d}.
	// A single fixed role is the layered solution (20) applied without
	// knowing the layers; it is feasible only when the guess happens to be
	// globally consistent, which no local algorithm can ensure (§2) — so
	// RoleDown/RoleUp generally produce infeasible points.
	Role Role
}

// Role selects an output formula for SolveAblated.
type Role int

// Output roles.
const (
	// RoleAveraged is the paper's output (18).
	RoleAveraged Role = iota
	// RoleDown pretends every agent is a down-agent.
	RoleDown
	// RoleUp pretends every agent is an up-agent.
	RoleUp
)

// SolveAblated runs the algorithm with the given pieces disabled and
// returns the trace. With the zero Ablation it equals Solve.
func SolveAblated(s *structured.Instance, opt Options, ab Ablation) (*Trace, error) {
	return run(s, opt, &Scratch{}, ab)
}

// singleRoleAt evaluates (20) for agent v under one fixed role guess:
// x_v = (1/R) Σ_d g_{v,d} for the chosen sign.
func singleRoleAt(g [][]float64, R, v int) float64 {
	sum := 0.0
	for d := range g {
		sum += g[d][v]
	}
	return sum / float64(R)
}
