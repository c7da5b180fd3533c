// Package gen builds max-min LP instances: random families with bounded
// degrees, the structured families the core algorithm runs on directly,
// adversarial symmetric cycles for the lower-bound experiments, and the
// application topologies the paper's introduction motivates (balanced data
// gathering in sensor networks, fair bandwidth allocation) plus the
// mixed packing/covering connection of [20] (nonnegative linear equation
// systems), and random row edits against any of them (RowEdits). All
// generators are deterministic in their seed.
package gen

import (
	"math"
	"math/rand"

	"repro/internal/mmlp"
)

// RandomConfig shapes Random.
type RandomConfig struct {
	// Agents is the number of variables (≥ 2).
	Agents int
	// MaxDegI bounds constraint row size ΔI (≥ 1).
	MaxDegI int
	// MaxDegK bounds objective row size ΔK (≥ 1).
	MaxDegK int
	// ExtraCons and ExtraObjs add rows beyond the covering minimum.
	ExtraCons, ExtraObjs int
	// ZeroOne forces all coefficients to 1 (the paper's {0,1} case);
	// otherwise coefficients are uniform in [0.5, 2).
	ZeroOne bool
}

// Random builds a strictly valid instance: every agent is covered by at
// least one constraint and one objective, row sizes respect the configured
// degree bounds, and the communication graph is connected whenever the
// covering rows make it so (they chain agents cyclically).
func Random(cfg RandomConfig, seed int64) *mmlp.Instance {
	rng := rand.New(rand.NewSource(seed))
	n := cfg.Agents
	in := mmlp.New(n)
	coef := func() float64 {
		if cfg.ZeroOne {
			return 1
		}
		return 0.5 + 1.5*rng.Float64()
	}
	// Cover all agents with chained rows: row t covers agents
	// [start, start+size) mod n, with start advancing size−1 so consecutive
	// rows overlap in one agent (keeping the graph connected).
	cover := func(maxSize int, add func(pairs ...float64) int) {
		if maxSize < 1 {
			maxSize = 1
		}
		start := 0
		for covered := 0; covered < n; {
			size := 1
			if maxSize > 1 {
				size = 2 + rng.Intn(maxSize-1)
			}
			if size > n {
				size = n
			}
			pairs := make([]float64, 0, 2*size)
			for j := 0; j < size; j++ {
				pairs = append(pairs, float64((start+j)%n), coef())
			}
			add(pairs...)
			adv := size - 1
			if adv < 1 {
				adv = 1
			}
			start = (start + adv) % n
			covered += adv
		}
	}
	cover(cfg.MaxDegI, in.AddConstraint)
	cover(cfg.MaxDegK, in.AddObjective)
	// Extra random rows.
	randomRow := func(maxSize int) []float64 {
		size := 1
		if maxSize > 1 {
			size = 1 + rng.Intn(maxSize)
		}
		if size > n {
			size = n
		}
		perm := rng.Perm(n)[:size]
		pairs := make([]float64, 0, 2*size)
		for _, v := range perm {
			pairs = append(pairs, float64(v), coef())
		}
		return pairs
	}
	for e := 0; e < cfg.ExtraCons; e++ {
		in.AddConstraint(randomRow(cfg.MaxDegI)...)
	}
	for e := 0; e < cfg.ExtraObjs; e++ {
		in.AddObjective(randomRow(cfg.MaxDegK)...)
	}
	return in
}

// StructuredConfig shapes RandomStructured.
type StructuredConfig struct {
	// Objectives is the number of objectives (≥ 1).
	Objectives int
	// MaxDegK bounds the agents per objective, ≥ 2 (sizes are uniform in
	// [2, MaxDegK]).
	MaxDegK int
	// ExtraCons adds random constraints beyond the covering matching.
	ExtraCons int
	// UnitCoefs forces a_iv = 1; otherwise uniform in [0.5, 2).
	UnitCoefs bool
}

// RandomStructured builds an instance already in the structured form of §5:
// every agent in exactly one objective (sizes ≥ 2, unit coefficients),
// every constraint over exactly two agents, every agent in at least one
// constraint. structured.FromMMLP accepts every returned instance.
func RandomStructured(cfg StructuredConfig, seed int64) *mmlp.Instance {
	rng := rand.New(rand.NewSource(seed))
	if cfg.MaxDegK < 2 {
		cfg.MaxDegK = 2
	}
	in := mmlp.New(0)
	for k := 0; k < cfg.Objectives; k++ {
		size := 2 + rng.Intn(cfg.MaxDegK-1)
		pairs := make([]float64, 0, 2*size)
		for j := 0; j < size; j++ {
			pairs = append(pairs, float64(in.NumAgents), 1)
			in.NumAgents++
		}
		in.AddObjective(pairs...)
	}
	coef := func() float64 {
		if cfg.UnitCoefs {
			return 1
		}
		return 0.5 + 1.5*rng.Float64()
	}
	// Constraint cover: random permutation paired up; with an odd count the
	// leftover agent pairs with a random other agent.
	perm := rng.Perm(in.NumAgents)
	for j := 0; j+1 < len(perm); j += 2 {
		in.AddConstraint(float64(perm[j]), coef(), float64(perm[j+1]), coef())
	}
	if len(perm)%2 == 1 {
		last := perm[len(perm)-1]
		other := perm[rng.Intn(len(perm)-1)]
		in.AddConstraint(float64(last), coef(), float64(other), coef())
	}
	for e := 0; e < cfg.ExtraCons; e++ {
		a := rng.Intn(in.NumAgents)
		b := rng.Intn(in.NumAgents)
		if a == b {
			continue
		}
		in.AddConstraint(float64(a), coef(), float64(b), coef())
	}
	return in
}

// TriNecklace builds a symmetric cycle family used by experiment E3:
// m objectives K_k = {L_k, C_k, R_k} (ΔK = 3, unit coefficients) joined by
// constraints {R_k, L_{k+1}} and {C_k, C_{k+1}} around a cycle (ΔI = 2).
// The construction is vertex-transitive per band: every L agent (and every
// C, and every R) has the same view at every radius, so any deterministic
// local algorithm must output the same value per band — the symmetry the
// Theorem 1 lower bound exploits. Agents are numbered L_k = 3k, C_k = 3k+1,
// R_k = 3k+2. The girth is 8 for every m ≥ 3.
func TriNecklace(m int) *mmlp.Instance {
	in := mmlp.New(3 * m)
	l := func(k int) float64 { return float64(3 * (((k % m) + m) % m)) }
	c := func(k int) float64 { return l(k) + 1 }
	r := func(k int) float64 { return l(k) + 2 }
	for k := 0; k < m; k++ {
		in.AddObjective(l(k), 1, c(k), 1, r(k), 1)
		in.AddConstraint(r(k), 1, l(k+1), 1)
		in.AddConstraint(c(k), 1, c(k+1), 1)
	}
	return in
}

// LayeredNecklace builds the layer-consistent cycle family used by the
// Lemma 9–11 tests: m objectives K_k = {U_k, D_k1, D_k2} with constraints
// {D_k1, U_{k+1}} and {D_k2, U_{k+1}} around a cycle. When R divides m the
// assignment ObjLayer[k] = 4k, U_k ↦ 4k−1, D_ki ↦ 4k+1 is consistent
// modulo 4R. Agents are numbered U_k = 3k, D_k1 = 3k+1, D_k2 = 3k+2.
// The second return values are the agent and objective layers.
func LayeredNecklace(m int) (*mmlp.Instance, []int, []int) {
	in := mmlp.New(3 * m)
	u := func(k int) float64 { return float64(3 * (((k % m) + m) % m)) }
	agentLayer := make([]int, 3*m)
	objLayer := make([]int, m)
	for k := 0; k < m; k++ {
		in.AddObjective(u(k), 1, u(k)+1, 1, u(k)+2, 1)
		in.AddConstraint(u(k)+1, 1, u(k+1), 1)
		in.AddConstraint(u(k)+2, 1, u(k+1), 1)
		objLayer[k] = 4 * k
		agentLayer[3*k] = 4*k - 1
		agentLayer[3*k+1] = 4*k + 1
		agentLayer[3*k+2] = 4*k + 1
	}
	return in, agentLayer, objLayer
}

// LayeredTree builds a finite chunk of the infinite layered tree of
// Figure 1: `depth` tiers of objectives, each with one up-agent above and
// two down-agents below; every down-agent's constraint leads to the
// up-agent of a child objective. The boundary (the root's up-agent and the
// deepest tier's down-agents) is closed with 4-node anchor gadgets
// (agents z1, z2 with objective {z1,z2} and constraints {boundary, z1},
// {z1, z2}) so the instance stays structured. A finite structured
// instance can never be an actual tree — agents, constraints and
// objectives all have degree ≥ 2, so a finite communication graph must
// contain cycles (which is exactly why §5's G is countably infinite) —
// but here every cycle is confined to a 4-cycle inside an anchor gadget:
// the interior is genuinely tree-shaped, making the family the closest
// finite realisation of Figure 1.
//
// Agents are numbered tier by tier: tier t (0-based) starts at offset
// Σ_{j<t} 3·2^j, with the up-agent first and its two down-agents after it,
// repeated for the 2^t objectives of the tier; anchor agents follow all
// tiers.
func LayeredTree(depth int) *mmlp.Instance {
	in := mmlp.New(0)
	newAgent := func() float64 {
		v := float64(in.NumAgents)
		in.NumAgents++
		return v
	}
	anchor := func(boundary float64) {
		z1 := newAgent()
		z2 := newAgent()
		in.AddObjective(z1, 1, z2, 1)
		in.AddConstraint(boundary, 1, z1, 1)
		in.AddConstraint(z1, 1, z2, 1)
	}
	type objNode struct{ up, d1, d2 float64 }
	var tier []objNode
	var anchors []float64 // boundary agents to anchor at the end
	for t := 0; t < depth; t++ {
		var next []objNode
		count := 1 << t
		for j := 0; j < count; j++ {
			up := newAgent()
			d1 := newAgent()
			d2 := newAgent()
			in.AddObjective(up, 1, d1, 1, d2, 1)
			next = append(next, objNode{up, d1, d2})
		}
		if t == 0 {
			anchors = append(anchors, next[0].up)
		} else {
			// Wire the previous tier's down-agents to this tier's up-agents.
			for j, parent := range tier {
				in.AddConstraint(parent.d1, 1, next[2*j].up, 1)
				in.AddConstraint(parent.d2, 1, next[2*j+1].up, 1)
			}
		}
		tier = next
	}
	for _, leaf := range tier {
		anchors = append(anchors, leaf.d1, leaf.d2)
	}
	for _, b := range anchors {
		anchor(b)
	}
	return in
}

// SensorGridConfig shapes SensorGrid.
type SensorGridConfig struct {
	// Width and Height size the relay grid (relays at integer coordinates).
	Width, Height int
	// Sensors is the number of data sources scattered in the grid.
	Sensors int
	// Fan is how many nearby relays each sensor can route through (≥ 1).
	Fan int
}

// SensorGrid builds the balanced data-gathering workload of the paper's
// introduction: sensor k splits its data stream across its Fan nearest
// relays; routing one unit through relay i costs energy proportional to
// 1 + d² (d the sensor-relay distance), and every relay has one unit of
// battery (the packing row). Objectives count delivered data, so the
// max-min optimum is the best worst-case per-sensor throughput. Each agent
// is a (sensor, relay) route: a bipartite max-min LP.
func SensorGrid(cfg SensorGridConfig, seed int64) *mmlp.Instance {
	rng := rand.New(rand.NewSource(seed))
	if cfg.Fan < 1 {
		cfg.Fan = 1
	}
	type pt struct{ x, y float64 }
	relays := make([]pt, 0, cfg.Width*cfg.Height)
	for gx := 0; gx < cfg.Width; gx++ {
		for gy := 0; gy < cfg.Height; gy++ {
			relays = append(relays, pt{float64(gx), float64(gy)})
		}
	}
	in := mmlp.New(0)
	relayRows := make([][]float64, len(relays)) // (agent, coef) pair lists
	for s := 0; s < cfg.Sensors; s++ {
		sx := rng.Float64() * float64(cfg.Width-1)
		sy := rng.Float64() * float64(cfg.Height-1)
		// Pick the Fan nearest relays by scanning (grids are small).
		type cand struct {
			idx int
			d2  float64
		}
		best := make([]cand, 0, cfg.Fan)
		for ri, rp := range relays {
			dx, dy := rp.x-sx, rp.y-sy
			c := cand{ri, dx*dx + dy*dy}
			pos := len(best)
			for pos > 0 && best[pos-1].d2 > c.d2 {
				pos--
			}
			if pos < cfg.Fan {
				best = append(best, cand{})
				copy(best[pos+1:], best[pos:])
				best[pos] = c
				if len(best) > cfg.Fan {
					best = best[:cfg.Fan]
				}
			}
		}
		objPairs := make([]float64, 0, 2*len(best))
		for _, c := range best {
			v := float64(in.NumAgents)
			in.NumAgents++
			objPairs = append(objPairs, v, 1)
			relayRows[c.idx] = append(relayRows[c.idx], v, 1+c.d2)
		}
		in.AddObjective(objPairs...)
	}
	for _, row := range relayRows {
		if len(row) > 0 {
			in.AddConstraint(row...)
		}
	}
	return in
}

// BandwidthConfig shapes Bandwidth.
type BandwidthConfig struct {
	// Links is the number of links on the ring backbone.
	Links int
	// Customers is the number of customers requesting bandwidth.
	Customers int
	// PathsPerCustomer is how many alternative routes each customer has.
	PathsPerCustomer int
	// MaxPathLen bounds the hop count of a route.
	MaxPathLen int
}

// Bandwidth builds the fair bandwidth-allocation workload of the paper's
// introduction on a ring backbone: each customer owns a few candidate
// routes (contiguous arcs of links); a route consumes capacity on every
// link it crosses (a_iv = 1) and delivers its rate to the customer
// (c_kv = 1). Links have unit capacity. Maximising the minimum customer
// rate is the max-min LP; typical instances have ΔI well above 2, so the
// full §4 pipeline is exercised.
func Bandwidth(cfg BandwidthConfig, seed int64) *mmlp.Instance {
	rng := rand.New(rand.NewSource(seed))
	if cfg.MaxPathLen < 1 {
		cfg.MaxPathLen = 1
	}
	in := mmlp.New(0)
	linkRows := make([][]float64, cfg.Links)
	for c := 0; c < cfg.Customers; c++ {
		objPairs := []float64{}
		for p := 0; p < cfg.PathsPerCustomer; p++ {
			start := rng.Intn(cfg.Links)
			length := 1 + rng.Intn(cfg.MaxPathLen)
			v := float64(in.NumAgents)
			in.NumAgents++
			objPairs = append(objPairs, v, 1)
			for h := 0; h < length; h++ {
				li := (start + h) % cfg.Links
				linkRows[li] = append(linkRows[li], v, 1)
			}
		}
		in.AddObjective(objPairs...)
	}
	for _, row := range linkRows {
		if len(row) > 0 {
			in.AddConstraint(row...)
		}
	}
	return in
}

// EquationsConfig shapes Equations.
type EquationsConfig struct {
	// Vars and Rows size the nonnegative system Bx = b.
	Vars, Rows int
	// Density is the probability of a nonzero B entry (clamped to ensure
	// every row and column has one).
	Density float64
}

// Equations builds the mixed packing/covering connection of [20]: a
// nonnegative linear system Bx = b (with b = Bx* for a hidden nonnegative
// witness x*, so the system is exactly solvable) encoded as the max-min LP
//
//	maximise min_k Σ_j (B_kj/b_k) x_j   s.t.  Σ_j (B_kj/b_k) x_j ≤ 1 ∀k.
//
// Row k appears both as a constraint and as an objective; the optimum is 1
// exactly when the system is solvable, and a factor-α approximation
// produces x with B x ∈ [b/α, b] componentwise.
func Equations(cfg EquationsConfig, seed int64) *mmlp.Instance {
	rng := rand.New(rand.NewSource(seed))
	b := make([][]float64, cfg.Rows) // B entries
	for k := range b {
		b[k] = make([]float64, cfg.Vars)
	}
	for k := 0; k < cfg.Rows; k++ {
		for j := 0; j < cfg.Vars; j++ {
			if rng.Float64() < cfg.Density {
				b[k][j] = 0.5 + rng.Float64()
			}
		}
		// Ensure a nonzero per row.
		if allZero(b[k]) {
			b[k][rng.Intn(cfg.Vars)] = 0.5 + rng.Float64()
		}
	}
	// Ensure a nonzero per column.
	for j := 0; j < cfg.Vars; j++ {
		has := false
		for k := 0; k < cfg.Rows; k++ {
			if b[k][j] != 0 {
				has = true
				break
			}
		}
		if !has {
			b[rng.Intn(cfg.Rows)][j] = 0.5 + rng.Float64()
		}
	}
	// Hidden witness and right-hand side.
	xstar := make([]float64, cfg.Vars)
	for j := range xstar {
		xstar[j] = 0.25 + rng.Float64()
	}
	in := mmlp.New(cfg.Vars)
	for k := 0; k < cfg.Rows; k++ {
		rhs := 0.0
		for j := 0; j < cfg.Vars; j++ {
			rhs += b[k][j] * xstar[j]
		}
		pairs := []float64{}
		for j := 0; j < cfg.Vars; j++ {
			if b[k][j] != 0 {
				pairs = append(pairs, float64(j), b[k][j]/rhs)
			}
		}
		in.AddConstraint(pairs...)
		in.AddObjective(pairs...)
	}
	return in
}

func allZero(xs []float64) bool {
	for _, x := range xs {
		if x != 0 {
			return false
		}
	}
	return true
}

// Opt1Distance reports how far an equation-system solution is from exact:
// for the Equations family, ‖Bx/b − 1‖∞ = max(1 − ω(x), maxViolation).
func Opt1Distance(in *mmlp.Instance, x []float64) float64 {
	return math.Max(1-in.Utility(x), in.MaxViolation(x))
}
