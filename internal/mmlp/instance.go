// Package mmlp defines the max-min linear program instance model used
// throughout the repository.
//
// A max-min LP asks to
//
//	maximise   ω(x) = min_{k∈K} Σ_{v∈Vk} c_kv x_v
//	subject to Σ_{v∈Vi} a_iv x_v ≤ 1  for all i ∈ I
//	           x_v ≥ 0                for all v ∈ V
//
// where all coefficients a_iv and c_kv are strictly positive, every
// constraint row has at most ΔI terms and every objective row has at most
// ΔK terms. Agents, constraints and objectives are the three node classes of
// the bipartite communication graph in the distributed setting (Floréen,
// Kaasinen, Kaski, Suomela, SPAA 2009, §1.1).
package mmlp

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Term couples an agent index with a strictly positive coefficient. A term
// in a constraint row carries a_iv; a term in an objective row carries c_kv.
type Term struct {
	Agent int     `json:"agent"`
	Coef  float64 `json:"coef"`
}

// Constraint is one packing row Σ_{v∈Vi} a_iv x_v ≤ 1.
type Constraint struct {
	Terms []Term `json:"terms"`
}

// Objective is one covering row Σ_{v∈Vk} c_kv x_v, whose minimum over all
// objectives is the utility ω(x) to be maximised.
type Objective struct {
	Terms []Term `json:"terms"`
}

// Row is either section's row type. Both are a bare term list, so generic
// code over rows reads a row's terms as Constraint(r).Terms.
type Row interface {
	Constraint | Objective
}

// Instance is a complete max-min LP. Agents are identified by the integers
// 0..NumAgents-1; constraints and objectives by their position in Cons and
// Objs. The zero value is an empty, valid instance with no agents.
type Instance struct {
	NumAgents int          `json:"num_agents"`
	Cons      []Constraint `json:"constraints"`
	Objs      []Objective  `json:"objectives"`
}

// New returns an empty instance with n agents.
func New(n int) *Instance {
	return &Instance{NumAgents: n}
}

// AddConstraint appends the packing row Σ a_iv x_v ≤ 1 given as alternating
// (agent, coefficient) pairs and returns its index. It panics if the
// argument list has odd length; use Validate to vet the resulting instance.
func (in *Instance) AddConstraint(pairs ...float64) int {
	in.Cons = append(in.Cons, Constraint{Terms: termsOf(pairs)})
	return len(in.Cons) - 1
}

// AddObjective appends the covering row Σ c_kv x_v given as alternating
// (agent, coefficient) pairs and returns its index.
func (in *Instance) AddObjective(pairs ...float64) int {
	in.Objs = append(in.Objs, Objective{Terms: termsOf(pairs)})
	return len(in.Objs) - 1
}

func termsOf(pairs []float64) []Term {
	if len(pairs)%2 != 0 {
		panic("mmlp: odd number of values in (agent, coef) pair list")
	}
	ts := make([]Term, 0, len(pairs)/2)
	for j := 0; j < len(pairs); j += 2 {
		ts = append(ts, Term{Agent: int(pairs[j]), Coef: pairs[j+1]})
	}
	return ts
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{
		NumAgents: in.NumAgents,
		Cons:      make([]Constraint, len(in.Cons)),
		Objs:      make([]Objective, len(in.Objs)),
	}
	for i, c := range in.Cons {
		out.Cons[i] = Constraint{Terms: append([]Term(nil), c.Terms...)}
	}
	for k, o := range in.Objs {
		out.Objs[k] = Objective{Terms: append([]Term(nil), o.Terms...)}
	}
	return out
}

// DegreeI returns ΔI, the maximum number of terms in any constraint row.
// An instance without constraints has DegreeI 0.
func (in *Instance) DegreeI() int {
	d := 0
	for _, c := range in.Cons {
		if len(c.Terms) > d {
			d = len(c.Terms)
		}
	}
	return d
}

// DegreeK returns ΔK, the maximum number of terms in any objective row.
func (in *Instance) DegreeK() int {
	d := 0
	for _, o := range in.Objs {
		if len(o.Terms) > d {
			d = len(o.Terms)
		}
	}
	return d
}

// Incidence captures, for every agent, the constraint rows Iv and objective
// rows Kv it appears in. It is the per-agent "local input" of §1.1.
type Incidence struct {
	// ConsOf[v] lists the indices of constraints containing agent v.
	ConsOf [][]int
	// ObjsOf[v] lists the indices of objectives containing agent v.
	ObjsOf [][]int
}

// Incidence computes the agent→row incidence lists. Row indices appear in
// increasing order.
func (in *Instance) Incidence() *Incidence {
	inc := &Incidence{
		ConsOf: make([][]int, in.NumAgents),
		ObjsOf: make([][]int, in.NumAgents),
	}
	for i, c := range in.Cons {
		for _, t := range c.Terms {
			inc.ConsOf[t.Agent] = append(inc.ConsOf[t.Agent], i)
		}
	}
	for k, o := range in.Objs {
		for _, t := range o.Terms {
			inc.ObjsOf[t.Agent] = append(inc.ObjsOf[t.Agent], k)
		}
	}
	return inc
}

// Caps returns, for every agent v, the largest value x_v may take if all
// other variables are zero: cap_v = min_{i∈Iv} 1/a_iv, or +Inf when v has no
// constraints. Caps appear as f+_{u,v,0} in equation (5) of the paper.
func (in *Instance) Caps() []float64 {
	caps := make([]float64, in.NumAgents)
	for v := range caps {
		caps[v] = math.Inf(1)
	}
	for _, c := range in.Cons {
		for _, t := range c.Terms {
			if cap := 1 / t.Coef; cap < caps[t.Agent] {
				caps[t.Agent] = cap
			}
		}
	}
	return caps
}

// TrivialUpperBound returns min_k Σ_{v∈Vk} c_kv cap_v, a cheap upper bound
// on the optimum: no objective can exceed the value it attains when every
// member agent is at its individual cap. Returns +Inf for an instance
// without objectives.
func (in *Instance) TrivialUpperBound() float64 {
	caps := in.Caps()
	ub := math.Inf(1)
	for _, o := range in.Objs {
		s := 0.0
		for _, t := range o.Terms {
			s += t.Coef * caps[t.Agent]
		}
		if s < ub {
			ub = s
		}
	}
	return ub
}

// Stats summarises the shape of an instance.
type Stats struct {
	Agents          int
	Constraints     int
	Objectives      int
	DegreeI         int // ΔI
	DegreeK         int // ΔK
	MaxConsPerAgent int
	MaxObjsPerAgent int
	Edges           int
}

// Stats computes summary statistics for the instance.
func (in *Instance) Stats() Stats {
	st := Stats{
		Agents:      in.NumAgents,
		Constraints: len(in.Cons),
		Objectives:  len(in.Objs),
		DegreeI:     in.DegreeI(),
		DegreeK:     in.DegreeK(),
	}
	inc := in.Incidence()
	for v := 0; v < in.NumAgents; v++ {
		if d := len(inc.ConsOf[v]); d > st.MaxConsPerAgent {
			st.MaxConsPerAgent = d
		}
		if d := len(inc.ObjsOf[v]); d > st.MaxObjsPerAgent {
			st.MaxObjsPerAgent = d
		}
		st.Edges += len(inc.ConsOf[v]) + len(inc.ObjsOf[v])
	}
	return st
}

// String renders the stats in a single human-readable line.
func (s Stats) String() string {
	return fmt.Sprintf("agents=%d constraints=%d objectives=%d ΔI=%d ΔK=%d edges=%d",
		s.Agents, s.Constraints, s.Objectives, s.DegreeI, s.DegreeK, s.Edges)
}

// SortTerms orders every row's terms by agent index. Row semantics are
// unchanged; a sorted instance has a canonical representation, which the
// tests and the JSON golden files rely on.
func (in *Instance) SortTerms() {
	for i := range in.Cons {
		ts := in.Cons[i].Terms
		sort.Slice(ts, func(a, b int) bool { return ts[a].Agent < ts[b].Agent })
	}
	for k := range in.Objs {
		ts := in.Objs[k].Terms
		sort.Slice(ts, func(a, b int) bool { return ts[a].Agent < ts[b].Agent })
	}
}

// CompareTerm totally orders terms by (agent, then coefficient bits — a
// tie only invalid instances can reach). This is THE term ordering of the
// canonical form: Instance.Canonical sorts with it, and the canon
// package's encoder and decoder check it through RowInOrder, which is what
// keeps the cache key's equivalence classes and the pipeline's
// canonicalization in exact agreement.
func CompareTerm(a, b Term) int {
	if a.Agent != b.Agent {
		if a.Agent < b.Agent {
			return -1
		}
		return 1
	}
	ab, bb := math.Float64bits(a.Coef), math.Float64bits(b.Coef)
	switch {
	case ab < bb:
		return -1
	case ab > bb:
		return 1
	}
	return 0
}

// Canonical returns the instance in canonical form: within every row the
// terms are ordered by CompareTerm, and within each section the rows are
// ordered by CompareRows. Term and row order are encoding
// artifacts of a max-min LP, yet floating-point summation makes the
// solvers sensitive to them; canonicalizing at pipeline entry makes every
// output a pure function of the instance's mathematical content — the
// same equivalence classes the canon package keys the result cache on.
// An already-canonical instance is returned as-is (a linear scan, no
// copy), so steady-state serving of sorted instances stays cheap; the
// caller must treat the result as read-only either way.
func (in *Instance) Canonical() *Instance { return in.CanonicalInto(nil) }

// CanonScratch is the arena CanonicalInto builds its copy into.
type CanonScratch = Arena

// CanonicalInto is Canonical building any needed copy into a's reusable
// memory, so steady-state canonicalization of similarly-sized instances
// does not allocate (nil a falls back to fresh memory). Like Canonical,
// an already-canonical instance is returned as-is. When a copy was made
// into a non-nil a it is valid only until a's next use; the caller must
// treat the result as read-only either way.
func (in *Instance) CanonicalInto(a *Arena) *Instance {
	if in.isCanonical() {
		return in
	}
	if a == nil {
		a = &Arena{}
	}
	total := 0
	for i := range in.Cons {
		total += len(in.Cons[i].Terms)
	}
	for k := range in.Objs {
		total += len(in.Objs[k].Terms)
	}
	a.Reset(in.NumAgents)
	a.Grow(len(in.Cons), len(in.Objs), total)
	for _, c := range in.Cons {
		a.terms = append(a.terms, c.Terms...)
		slices.SortFunc(a.Pending(), CompareTerm)
		a.EndConstraint()
	}
	for _, o := range in.Objs {
		a.terms = append(a.terms, o.Terms...)
		slices.SortFunc(a.Pending(), CompareTerm)
		a.EndObjective()
	}
	out := a.Finish()
	slices.SortFunc(out.Cons, func(a, b Constraint) int { return CompareRows(a.Terms, b.Terms) })
	slices.SortFunc(out.Objs, func(a, b Objective) int { return CompareRows(a.Terms, b.Terms) })
	return out
}

// isCanonical reports whether every row's terms and both sections' rows
// are already in canonical order.
func (in *Instance) isCanonical() bool {
	return sectionInOrder(in.Cons) && sectionInOrder(in.Objs)
}

func sectionInOrder[R Row](rows []R) bool {
	var prev []Term
	for _, r := range rows {
		if !RowInOrder(prev, Constraint(r).Terms) {
			return false
		}
		prev = Constraint(r).Terms
	}
	return true
}

// RowInOrder reports whether row may follow prev in a canonical section:
// its terms are sorted by CompareTerm and prev is no larger under
// CompareRows. Any row may follow nil, so a section is canonical when
// each row may follow the one before it. Canon's encoder and decoder
// check canonical order with it alone.
func RowInOrder(prev, row []Term) bool {
	return slices.IsSortedFunc(row, CompareTerm) && CompareRows(prev, row) <= 0
}

// CompareRows totally orders canonical rows: by length, then termwise by
// CompareTerm. It is THE row order of the canonical form, within each
// section; delta.Apply keeps edited sections in it by binary search.
func CompareRows(a, b []Term) int {
	if len(a) != len(b) {
		if len(a) < len(b) {
			return -1
		}
		return 1
	}
	for i := range a {
		if c := CompareTerm(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}
