// Package structured holds the compact representation of a max-min LP in
// the special form the algorithm of §5 operates on, as produced by the §4
// transformations:
//
//	|Vi| = 2   every constraint couples exactly two agents,
//	|Kv| = 1   every agent belongs to exactly one objective k(v),
//	|Vk| ≥ 2   every objective has at least two agents,
//	c_kv = 1   all objective coefficients are 1,
//	|Iv| ≥ 1   every agent has at least one constraint.
//
// The representation stores, per agent, its objective k(v), its constraint
// list Iv and its cap min_{i∈Iv} 1/a_iv, and per constraint the agent pair
// with coefficients, so the recursions (5)–(7) and (12)–(14) read their
// inputs in O(1).
package structured

import (
	"fmt"
	"math"

	"repro/internal/mmlp"
	"repro/internal/reuse"
)

// Instance is a structured max-min LP.
type Instance struct {
	// N is the number of agents.
	N int
	// ObjOf[v] is k(v), the unique objective of agent v.
	ObjOf []int32
	// Objs[k] lists Vk, the agents of objective k (length ≥ 2).
	Objs [][]int32
	// ConsV[i] is the agent pair of constraint i.
	ConsV [][2]int32
	// ConsA[i] holds the matching coefficients a_iv.
	ConsA [][2]float64
	// ConsOf[v] lists Iv, the constraints containing agent v.
	ConsOf [][]int32
	// Caps[v] = min_{i∈Iv} 1/a_iv, the value f+_{u,v,0} of equation (5).
	Caps []float64
}

// Scratch is the reusable conversion memory of FromMMLPScratch: the
// compact instance itself plus the flat backings its member and incidence
// lists are carved from. The zero value is ready. Not safe for concurrent
// use.
type Scratch struct {
	inst    Instance
	objIdx  []int32
	consIdx []int32
	count   []int32

	// rew is Reweighted's result: its coefficient and cap arrays are this
	// scratch's, its agent, objective and incidence lists another's.
	rew     Instance
	changed []int32
}

// grow is the shared arena-resize primitive.
func grow[T any](buf *[]T, n int) []T { return reuse.Grow(buf, n) }

// FromMMLP converts a structured mmlp.Instance into the compact form. It
// is the one check of §5's preconditions: every constraint has exactly two
// agents, every agent exactly one objective and at least one constraint,
// every objective at least two agents, and every objective coefficient
// is 1.
func FromMMLP(in *mmlp.Instance) (*Instance, error) {
	return FromMMLPScratch(in, nil)
}

// FromMMLPScratch is FromMMLP building the compact form into sc's reusable
// memory (nil sc allocates a private one), so a warm worker converts
// similarly-sized instances without allocating. The result aliases sc and
// is valid until its next use.
func FromMMLPScratch(in *mmlp.Instance, sc *Scratch) (*Instance, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	s := &sc.inst
	s.N = in.NumAgents
	s.ObjOf = grow(&s.ObjOf, in.NumAgents)
	for v := range s.ObjOf {
		s.ObjOf[v] = -1
	}
	totalObj := 0
	for _, o := range in.Objs {
		totalObj += len(o.Terms)
	}
	// Presize the flat member backing so the per-objective carves below
	// stay stable.
	objIdx := grow(&sc.objIdx, totalObj)
	s.Objs = grow(&s.Objs, len(in.Objs))
	pos := 0
	for k, o := range in.Objs {
		if len(o.Terms) < 2 {
			return nil, fmt.Errorf("structured: objective %d has %d agents, want ≥ 2", k, len(o.Terms))
		}
		row := objIdx[pos : pos+len(o.Terms) : pos+len(o.Terms)]
		pos += len(o.Terms)
		s.Objs[k] = row
		for j, t := range o.Terms {
			if t.Coef != 1 {
				return nil, fmt.Errorf("structured: objective %d agent %d has coefficient %v, want 1", k, t.Agent, t.Coef)
			}
			if s.ObjOf[t.Agent] != -1 {
				return nil, fmt.Errorf("structured: agent %d belongs to objectives %d and %d", t.Agent, s.ObjOf[t.Agent], k)
			}
			s.ObjOf[t.Agent] = int32(k)
			row[j] = int32(t.Agent)
		}
	}
	for v := range s.ObjOf {
		if s.ObjOf[v] == -1 {
			return nil, fmt.Errorf("structured: agent %d has no objective", v)
		}
	}
	// One pass over the constraints fills the pairs, counts each agent's
	// constraints and takes its cap min_{i∈Iv} 1/a_iv in constraint order.
	s.ConsV = grow(&s.ConsV, len(in.Cons))
	s.ConsA = grow(&s.ConsA, len(in.Cons))
	s.Caps = grow(&s.Caps, in.NumAgents)
	count := grow(&sc.count, in.NumAgents)
	for v := range count {
		count[v] = 0
	}
	for i, c := range in.Cons {
		if len(c.Terms) != 2 {
			return nil, fmt.Errorf("structured: constraint %d has %d agents, want 2", i, len(c.Terms))
		}
		for j, t := range c.Terms {
			s.ConsV[i][j] = int32(t.Agent)
			s.ConsA[i][j] = t.Coef
			if count[t.Agent] == 0 || 1/t.Coef < s.Caps[t.Agent] {
				s.Caps[t.Agent] = 1 / t.Coef
			}
			count[t.Agent]++
		}
	}
	// ConsOf as carved-up CSR: each agent's list gets exactly its counted
	// capacity, so the appends below never reallocate and constraint order
	// matches the append-per-term order of the allocating construction.
	consIdx := grow(&sc.consIdx, 2*len(in.Cons))
	s.ConsOf = grow(&s.ConsOf, in.NumAgents)
	pos = 0
	for v := 0; v < in.NumAgents; v++ {
		if count[v] == 0 {
			return nil, fmt.Errorf("structured: agent %d has no constraints", v)
		}
		s.ConsOf[v] = consIdx[pos : pos : pos+int(count[v])]
		pos += int(count[v])
	}
	for i, pair := range s.ConsV {
		for _, v := range pair {
			s.ConsOf[v] = append(s.ConsOf[v], int32(i))
		}
	}
	return s, nil
}

// Reweighted returns FromMMLP(in) given s = FromMMLP(base), for an
// instance that differs from base in constraint coefficients alone: the
// same agent count and objective rows, and at every constraint position
// the same agent pair, with coefficients in (0, MaxFloat64]. Such an
// instance is valid and in structured form, and its compact form is s
// with the new coefficients and the caps of their agents re-taken in
// constraint order. The result shares s's ObjOf, Objs, ConsV and ConsOf
// (neither instance may mutate them) and owns only ConsA and Caps, in
// sc's memory (nil sc allocates); it is valid until sc's next
// Reweighted. ok is false for any other instance, whose compact form
// FromMMLP must build. A section or row in shares with base (the
// copy-on-write rows of an edit) is known equal without a comparison.
func (s *Instance) Reweighted(base, in *mmlp.Instance, sc *Scratch) (r *Instance, ok bool) {
	if in.NumAgents != s.N || len(in.Cons) != len(s.ConsV) || len(in.Objs) != len(s.Objs) {
		return nil, false
	}
	if !shared(in.Objs, base.Objs) {
		for k, o := range in.Objs {
			if len(o.Terms) != len(s.Objs[k]) {
				return nil, false
			}
			for j, t := range o.Terms {
				if t.Agent != int(s.Objs[k][j]) || t.Coef != 1 {
					return nil, false
				}
			}
		}
	}
	if sc == nil {
		sc = &Scratch{}
	}
	r = &sc.rew
	r.N, r.ObjOf, r.Objs, r.ConsV, r.ConsOf = s.N, s.ObjOf, s.Objs, s.ConsV, s.ConsOf
	r.ConsA = append(r.ConsA[:0], s.ConsA...)
	changed := sc.changed[:0]
	for i, c := range in.Cons {
		if shared(c.Terms, base.Cons[i].Terms) {
			continue
		}
		if len(c.Terms) != 2 {
			return nil, false
		}
		for j, t := range c.Terms {
			if t.Agent != int(s.ConsV[i][j]) || !(t.Coef > 0 && t.Coef <= math.MaxFloat64) {
				return nil, false
			}
			r.ConsA[i][j] = t.Coef
		}
		changed = append(changed, int32(i))
	}
	sc.changed = changed
	r.Caps = append(r.Caps[:0], s.Caps...)
	for _, i := range changed {
		for _, v := range r.ConsV[i] {
			for j, ci := range r.ConsOf[v] {
				if c := 1 / r.CoefOf(int(ci), v); j == 0 || c < r.Caps[v] {
					r.Caps[v] = c
				}
			}
		}
	}
	return r, true
}

// shared reports whether a and b are one slice — the same length over the
// same backing array — and so hold the same elements.
func shared[T any](a, b []T) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }

// CoefOf returns a_iv for agent v in constraint i; v must be in the pair.
func (s *Instance) CoefOf(i int, v int32) float64 {
	if s.ConsV[i][0] == v {
		return s.ConsA[i][0]
	}
	if s.ConsV[i][1] == v {
		return s.ConsA[i][1]
	}
	panic(fmt.Sprintf("structured: agent %d not in constraint %d", v, i))
}

// Partner returns n(v,i): the other agent of constraint i, together with
// a_iv (the caller's coefficient) and a_i,n(v,i) (the partner's).
func (s *Instance) Partner(i int, v int32) (w int32, av, aw float64) {
	if s.ConsV[i][0] == v {
		return s.ConsV[i][1], s.ConsA[i][0], s.ConsA[i][1]
	}
	if s.ConsV[i][1] == v {
		return s.ConsV[i][0], s.ConsA[i][1], s.ConsA[i][0]
	}
	panic(fmt.Sprintf("structured: agent %d not in constraint %d", v, i))
}

// PeersDo invokes fn for every w ∈ N(v) = Vk(v) \ {v}.
func (s *Instance) PeersDo(v int32, fn func(w int32)) {
	for _, w := range s.Objs[s.ObjOf[v]] {
		if w != v {
			fn(w)
		}
	}
}

// DegreeK returns ΔK, the largest objective size.
func (s *Instance) DegreeK() int {
	d := 0
	for _, m := range s.Objs {
		if len(m) > d {
			d = len(m)
		}
	}
	return d
}

// MaxConsPerAgent returns max_v |Iv|, the branching factor of the
// alternating-tree recursion.
func (s *Instance) MaxConsPerAgent() int {
	d := 0
	for _, c := range s.ConsOf {
		if len(c) > d {
			d = len(c)
		}
	}
	return d
}

// ToMMLP converts back to the row representation (for LP solving, JSON, …).
func (s *Instance) ToMMLP() *mmlp.Instance {
	out := mmlp.New(s.N)
	for i := range s.ConsV {
		out.AddConstraint(float64(s.ConsV[i][0]), s.ConsA[i][0], float64(s.ConsV[i][1]), s.ConsA[i][1])
	}
	for _, members := range s.Objs {
		pairs := make([]float64, 0, 2*len(members))
		for _, v := range members {
			pairs = append(pairs, float64(v), 1)
		}
		out.AddObjective(pairs...)
	}
	return out
}

// Utility returns ω(x) on the structured instance: the smallest objective
// sum Σ_{v∈Vk} x_v.
func (s *Instance) Utility(x []float64) float64 {
	best := 0.0
	for k, members := range s.Objs {
		sum := 0.0
		for _, v := range members {
			sum += x[v]
		}
		if k == 0 || sum < best {
			best = sum
		}
	}
	return best
}

// MaxViolation returns the worst constraint overshoot max_i (Σ a x − 1),
// clamped at 0, plus any negativity of x.
func (s *Instance) MaxViolation(x []float64) float64 {
	worst := 0.0
	for _, xv := range x {
		if -xv > worst {
			worst = -xv
		}
	}
	for i := range s.ConsV {
		load := s.ConsA[i][0]*x[s.ConsV[i][0]] + s.ConsA[i][1]*x[s.ConsV[i][1]]
		if load-1 > worst {
			worst = load - 1
		}
	}
	return worst
}
