package transform

import (
	"math"

	"repro/internal/mmlp"
)

// Outcome classifies what preprocessing discovered about an instance.
type Outcome int

// Preprocessing outcomes.
const (
	// OK: the reduced instance is strictly valid and the optimum of the
	// original equals the optimum of the reduced instance.
	OK Outcome = iota
	// ZeroOptimum: some objective row is empty, so ω(x) = 0 for every x;
	// the all-zero vector is optimal and no reduced instance is produced.
	ZeroOptimum
	// UnboundedOptimum: every objective can be pushed arbitrarily high by
	// unconstrained agents; no reduced instance is produced.
	UnboundedOptimum
)

// Preprocessed is the result of Preprocess: a strictly valid reduced
// instance plus the bookkeeping to lift solutions back to the original.
// A record produced by PreprocessScratch aliases the arena it was built
// in and is valid until the arena's next use.
type Preprocessed struct {
	// Outcome tells whether a reduced instance exists.
	Outcome Outcome
	// Out is the reduced instance (nil unless Outcome == OK).
	Out *mmlp.Instance
	// origAgents is the original agent count.
	origAgents int
	// keepAgent maps reduced agent index → original agent index.
	keepAgent []int
	// boost lists, per removed objective, one unconstrained original agent
	// and the objective coefficient tying it to that objective; the lift
	// sets the agent high enough to cover the achieved utility.
	boost []boostEntry
}

type boostEntry struct {
	agent int
	coef  float64
}

// Preprocess removes the degenerate structures enumerated at the start of
// §4: empty constraints are dropped; an empty objective forces the optimum
// to zero; agents with no constraints ("unconstrained") let every objective
// containing them reach any value, so those objectives are dropped; agents
// that then contribute to no objective are fixed to zero and removed. The
// reduced instance, when one exists, is strictly valid and has the same
// optimum as the original.
func Preprocess(in *mmlp.Instance) *Preprocessed {
	return PreprocessScratch(in, nil)
}

// PreprocessScratch is Preprocess building the reduced instance and the
// lift bookkeeping into sc's reusable arena (nil sc allocates a private
// one). The returned record aliases sc and is valid until its next use.
// When there is nothing to remove, its Out is in itself.
func PreprocessScratch(in *mmlp.Instance, sc *Scratch) *Preprocessed {
	if sc == nil {
		sc = NewScratch()
	}
	pp := &sc.pp
	pp.Outcome = OK
	pp.Out = nil
	pp.origAgents = in.NumAgents
	pp.keepAgent = pp.keepAgent[:0]
	pp.boost = pp.boost[:0]

	for _, o := range in.Objs {
		if len(o.Terms) == 0 {
			pp.Outcome = ZeroOptimum
			return pp
		}
	}

	// consCount[v] == 0 ⇔ v is unconstrained.
	consCount := grow(&sc.countA, in.NumAgents)
	for v := range consCount {
		consCount[v] = 0
	}
	emptyRow := false
	for _, c := range in.Cons {
		emptyRow = emptyRow || len(c.Terms) == 0
		for _, t := range c.Terms {
			consCount[t.Agent]++
		}
	}

	// Objectives containing an unconstrained agent can reach any value.
	keepObj := grow(&sc.boolK, len(in.Objs))
	kept := 0
	for k, o := range in.Objs {
		keepObj[k] = true
		for _, t := range o.Terms {
			if consCount[t.Agent] == 0 {
				keepObj[k] = false
				pp.boost = append(pp.boost, boostEntry{agent: t.Agent, coef: t.Coef})
				break
			}
		}
		if keepObj[k] {
			kept++
		}
	}
	if kept == 0 {
		pp.Outcome = UnboundedOptimum
		return pp
	}

	// Agents contributing to no kept objective are fixed to zero; dropping
	// them only relaxes constraints.
	contributes := grow(&sc.boolV, in.NumAgents)
	for v := range contributes {
		contributes[v] = false
	}
	for k, o := range in.Objs {
		if !keepObj[k] {
			continue
		}
		for _, t := range o.Terms {
			contributes[t.Agent] = true
		}
	}

	newIndex := grow(&sc.idxA, in.NumAgents)
	na := 0
	for v := 0; v < in.NumAgents; v++ {
		if contributes[v] {
			newIndex[v] = int32(na)
			pp.keepAgent = append(pp.keepAgent, v)
			na++
		} else {
			newIndex[v] = -1
		}
	}
	if kept == len(in.Objs) && na == in.NumAgents && !emptyRow {
		// Nothing to remove: the reduced instance would be in, row for row.
		pp.Out = in
		return pp
	}
	a := &sc.pre
	a.Reset(na)
	for _, c := range in.Cons {
		for _, t := range c.Terms {
			if newIndex[t.Agent] >= 0 {
				a.Add(int(newIndex[t.Agent]), t.Coef)
			}
		}
		if len(a.Pending()) > 0 {
			a.EndConstraint()
		}
	}
	for k, o := range in.Objs {
		if !keepObj[k] {
			continue
		}
		for _, t := range o.Terms {
			a.Add(int(newIndex[t.Agent]), t.Coef)
		}
		a.EndObjective()
	}
	pp.Outcome = OK
	pp.Out = a.Finish()
	return pp
}

// Lift converts a feasible solution of the reduced instance into a feasible
// solution of the original with at least the same utility: kept agents copy
// their values, dropped agents are zero, and one unconstrained agent per
// dropped objective is raised so that the dropped objective matches the
// utility the reduced solution achieves. For ZeroOptimum the all-zero
// vector is returned (x may be nil in that case). When nothing was
// removed the lift is the identity and x itself is returned; otherwise
// the result is freshly allocated. It never aliases the arena the record
// was built in.
func (pp *Preprocessed) Lift(x []float64) []float64 {
	if pp.Outcome == OK && len(pp.keepAgent) == pp.origAgents && len(pp.boost) == 0 {
		return x
	}
	full := make([]float64, pp.origAgents)
	if pp.Outcome != OK {
		return full
	}
	for r, v := range pp.keepAgent {
		full[v] = x[r]
	}
	util := pp.Out.Utility(x)
	if math.IsInf(util, 1) || util <= 0 {
		return full
	}
	for _, b := range pp.boost {
		if need := util / b.coef; full[b.agent] < need {
			full[b.agent] = need
		}
	}
	return full
}
