package transform

import (
	"math"

	"repro/internal/mmlp"
)

// The exported step functions apply one §4 rewrite on a private arena, so
// their results are independently owned; StructureScratch runs the same
// implementations against a caller-supplied Scratch so a warm worker
// rebuilds the whole pipeline without allocating.
//
// With handOn set (StructureScratch sets it), a step with nothing to
// rewrite returns its input itself, which the rewrite would rebuild row
// for row; the exported functions always rewrite. Either way the step
// returns the back-map it computes, by the same code, because even a
// handed-on step's back-map is not the identity in float64: 2·x/2
// overflows above MaxFloat64/2, and the maximum with 0 sends −0 and
// negative x to +0.

// AugmentSingletonConstraints implements §4.2: every constraint with a
// single agent v is augmented with a six-node gadget (agents s, t, u;
// objectives h, ℓ; constraint j) so that afterwards |Vi| ≥ 2 everywhere.
// The gadget never constrains the original instance: setting x_s = 0 and
// x_t = x_u = 1/2 satisfies the new rows at utility at least the optimum,
// because the gadget's large coefficient M is twice the trivial bound of an
// objective adjacent to v. Optima coincide; back-mapping truncates to the
// original agents.
func AugmentSingletonConstraints(in *mmlp.Instance) (*mmlp.Instance, BackMap) {
	sc := NewScratch()
	return augmentSingletonConstraints(in, sc, &sc.outs[0], false)
}

func augmentSingletonConstraints(in *mmlp.Instance, sc *Scratch, a *mmlp.Arena, handOn bool) (*mmlp.Instance, BackMap) {
	back := BackMap{kind: backTruncate, n: in.NumAgents}
	singles, terms := 0, mmlp.TermCount(in.Objs)
	for _, c := range in.Cons {
		terms += len(c.Terms)
		if len(c.Terms) == 1 {
			singles++
		}
	}
	if handOn && singles == 0 {
		return in, back
	}
	caps := capsInto(in, &sc.caps)
	// firstObj[v] is the first objective adjacent to v: the last write of
	// a descending pass over the objectives.
	firstObj := grow(&sc.idxA, in.NumAgents)
	for v := range firstObj {
		firstObj[v] = -1
	}
	for k := len(in.Objs) - 1; k >= 0; k-- {
		for _, t := range in.Objs[k].Terms {
			firstObj[t.Agent] = int32(k)
		}
	}
	origAgents := in.NumAgents
	a.Reset(origAgents)
	// Each singleton gains a term and brings a gadget's constraint j and
	// objectives h and ℓ, of two terms each.
	a.Grow(len(in.Cons)+singles, len(in.Objs)+2*singles, terms+7*singles)
	gadgets := sc.gadgets[:0]
	next := origAgents
	for _, c := range in.Cons {
		if len(c.Terms) != 1 {
			a.EndConstraint(c.Terms...)
			continue
		}
		v := c.Terms[0].Agent
		if v >= origAgents {
			a.EndConstraint(c.Terms...) // gadget agents are already fine (their rows have 2 terms)
			continue
		}
		// M = 2 Σ_{w∈Vk} c_kw cap_w for the first objective k adjacent to v.
		m := 0.0
		for _, t := range in.Objs[firstObj[v]].Terms {
			m += t.Coef * caps[t.Agent]
		}
		m *= 2
		if m <= 0 || math.IsInf(m, 1) {
			// Defensive: strictly valid inputs have positive finite caps.
			m = 1
		}
		s := next
		next += 3
		a.EndConstraint(c.Terms[0], mmlp.Term{Agent: s, Coef: 1})
		gadgets = append(gadgets, gadget{s: int32(s), m: m})
	}
	sc.gadgets = gadgets
	for _, g := range gadgets {
		a.Add(int(g.s)+1, 1) // j: x_t + x_u ≤ 1
		a.Add(int(g.s)+2, 1)
		a.EndConstraint()
	}
	for _, o := range in.Objs {
		a.EndObjective(o.Terms...)
	}
	for _, g := range gadgets {
		a.Add(int(g.s), 1) // h: x_s + M x_t
		a.Add(int(g.s)+1, g.m)
		a.EndObjective()
		a.Add(int(g.s), 1) // ℓ: x_s + M x_u
		a.Add(int(g.s)+2, g.m)
		a.EndObjective()
	}
	out := a.Finish()
	out.NumAgents = next
	return out, back
}

// ReduceConstraintDegree implements §4.3: every constraint with |Vi| > 2 is
// replaced by the C(|Vi|,2) pairwise constraints (3). The back-mapping (4)
// scales each agent by 2 / max_{i∈Iv} |Vi| computed on the step's input, so
// a feasible transformed solution maps to a feasible original one. This is
// the only step that costs approximation ratio: a factor ΔI/2.
func ReduceConstraintDegree(in *mmlp.Instance) (*mmlp.Instance, BackMap) {
	sc := NewScratch()
	return reduceConstraintDegree(in, sc, &sc.outs[1], false)
}

func reduceConstraintDegree(in *mmlp.Instance, sc *Scratch, a *mmlp.Arena, handOn bool) (*mmlp.Instance, BackMap) {
	divisor := grow(&sc.divisor, in.NumAgents)
	for v := range divisor {
		divisor[v] = 2
	}
	// A row of n > 2 terms becomes n(n−1)/2 rows of two.
	wide, cons, terms := false, 0, mmlp.TermCount(in.Objs)
	for _, c := range in.Cons {
		if len(c.Terms) <= 2 {
			cons++
			terms += len(c.Terms)
			continue
		}
		wide = true
		pairs := len(c.Terms) * (len(c.Terms) - 1) / 2
		cons += pairs
		terms += 2 * pairs
		for _, t := range c.Terms {
			if d := float64(len(c.Terms)); d > divisor[t.Agent] {
				divisor[t.Agent] = d
			}
		}
	}
	back := BackMap{kind: backScaleHalf, n: in.NumAgents, scale: divisor}
	if handOn && !wide {
		return in, back
	}
	a.Reset(in.NumAgents)
	a.Grow(cons, len(in.Objs), terms)
	for _, c := range in.Cons {
		if len(c.Terms) <= 2 {
			a.EndConstraint(c.Terms...)
			continue
		}
		for x := 0; x < len(c.Terms); x++ {
			for y := x + 1; y < len(c.Terms); y++ {
				a.EndConstraint(c.Terms[x], c.Terms[y])
			}
		}
	}
	for _, o := range in.Objs {
		a.EndObjective(o.Terms...)
	}
	return a.Finish(), back
}

// SplitAgentsPerObjective implements §4.4: each agent v with |Kv| = q is
// split into q copies, one per adjacent objective; every constraint {v,w}
// is replaced by the |Kv|·|Kw| combinations of copies. Afterwards
// |Kv| = 1 everywhere. Optima coincide; the back-mapping takes the maximum
// over the copies of each original agent, which remains feasible because
// every combination of copies is constrained.
//
// The step requires |Vi| ≤ 2 (guaranteed by ReduceConstraintDegree).
func SplitAgentsPerObjective(in *mmlp.Instance) (*mmlp.Instance, BackMap) {
	sc := NewScratch()
	return splitAgentsPerObjective(in, sc, &sc.outs[2], false)
}

func splitAgentsPerObjective(in *mmlp.Instance, sc *Scratch, a *mmlp.Arena, handOn bool) (*mmlp.Instance, BackMap) {
	n := in.NumAgents
	// |Kv|, counted off the objective rows.
	kv := grow(&sc.countA, n)
	for v := range kv {
		kv[v] = 0
	}
	for _, o := range in.Objs {
		for _, t := range o.Terms {
			kv[t.Agent]++
		}
	}
	// Copies are dedicated to v's objectives in increasing k, so the copy
	// of v for its p-th objective is copyStart[v]+p — an index computation
	// where the allocating era kept per-agent maps.
	copyStart := grow(&sc.idxA, n+1)
	parent := sc.parentSplit[:0]
	total, split := 0, false
	for v := 0; v < n; v++ {
		copyStart[v] = int32(total)
		split = split || kv[v] != 1
		for range kv[v] {
			parent = append(parent, int32(v))
			total++
		}
	}
	copyStart[n] = int32(total)
	sc.parentSplit = parent
	back := BackMap{kind: backMax, n: n, parent: parent}
	if handOn && !split {
		return in, back
	}
	a.Reset(total)
	if !a.Holds(mmlp.TermCount(in.Cons) + mmlp.TermCount(in.Objs)) {
		// A row becomes one row per combination of its agents' copies.
		cons, terms := 0, mmlp.TermCount(in.Objs)
		for _, c := range in.Cons {
			rows := 1
			for _, t := range c.Terms {
				rows *= int(kv[t.Agent])
			}
			cons += rows
			terms += rows * len(c.Terms)
		}
		a.Grow(cons, len(in.Objs), terms)
	}
	for _, c := range in.Cons {
		switch len(c.Terms) {
		case 1:
			t := c.Terms[0]
			for p := range kv[t.Agent] {
				a.Add(int(copyStart[t.Agent]+p), t.Coef)
				a.EndConstraint()
			}
		case 2:
			ta, tb := c.Terms[0], c.Terms[1]
			for pa := range kv[ta.Agent] {
				for pb := range kv[tb.Agent] {
					a.Add(int(copyStart[ta.Agent]+pa), ta.Coef)
					a.Add(int(copyStart[tb.Agent]+pb), tb.Coef)
					a.EndConstraint()
				}
			}
		default:
			panic("transform: SplitAgentsPerObjective requires |Vi| ≤ 2; run ReduceConstraintDegree first")
		}
	}
	// cursor[v] is the next unconsumed copy of v; objectives are visited
	// in increasing k, the order the copies were dedicated in.
	cursor := kv
	for v := range cursor {
		cursor[v] = 0
	}
	for _, o := range in.Objs {
		for _, t := range o.Terms {
			a.Add(int(copyStart[t.Agent]+cursor[t.Agent]), t.Coef)
			cursor[t.Agent]++
		}
		a.EndObjective()
	}
	return a.Finish(), back
}

// emitState is the explicit recursion state of §4.5's constraint
// duplication. The accumulator is pushed and popped around each recursive
// call and leaves are copied into the arena, so — unlike the earlier
// encoding that passed append(acc, …) to both branches — no two branches
// ever share an accumulator backing array (see the aliasing regression
// test). Living in the Scratch, it also spares the per-call closure
// allocation of the recursive-function-value form.
type emitState struct {
	cons     *mmlp.Arena
	terms    []mmlp.Term
	splitT   []int32
	newIndex []int32
	acc      []mmlp.Term
}

// emit appends, for the constraint row e.terms, one output row per
// combination of copies of its split agents (t-copy before u-copy, the
// original emission order).
func (e *emitState) emit(idx int) {
	if idx == len(e.terms) {
		e.cons.EndConstraint(e.acc...)
		return
	}
	t := e.terms[idx]
	if st := e.splitT[t.Agent]; st >= 0 {
		e.acc = append(e.acc, mmlp.Term{Agent: int(st), Coef: t.Coef})
		e.emit(idx + 1)
		e.acc[len(e.acc)-1].Agent = int(st) + 1
		e.emit(idx + 1)
		e.acc = e.acc[:len(e.acc)-1]
		return
	}
	e.acc = append(e.acc, mmlp.Term{Agent: int(e.newIndex[t.Agent]), Coef: t.Coef})
	e.emit(idx + 1)
	e.acc = e.acc[:len(e.acc)-1]
}

// AugmentSingletonObjectives implements §4.5: every objective with a single
// agent v splits v into two copies t, u; every constraint containing v is
// duplicated, once per copy; the objective becomes c/2 · (x_t + x_u).
// Afterwards |Vk| ≥ 2 everywhere. Optima coincide; back-mapping takes the
// maximum of the two copies.
//
// The step requires |Kv| = 1 (guaranteed by SplitAgentsPerObjective).
func AugmentSingletonObjectives(in *mmlp.Instance) (*mmlp.Instance, BackMap) {
	sc := NewScratch()
	return augmentSingletonObjectives(in, sc, &sc.outs[3], false)
}

func augmentSingletonObjectives(in *mmlp.Instance, sc *Scratch, a *mmlp.Arena, handOn bool) (*mmlp.Instance, BackMap) {
	n := in.NumAgents
	// splitT[v] is the t-copy of a split agent (its u-copy is splitT[v]+1),
	// -1 otherwise; newIndex[v] is the output index of an unsplit agent.
	// An agent splits when it is the one agent of an objective, which the
	// first pass marks with 0.
	splitT := grow(&sc.idxB, n)
	newIndex := grow(&sc.idxA, n)
	for v := range splitT {
		splitT[v] = -1
	}
	singles := 0
	for _, o := range in.Objs {
		if len(o.Terms) == 1 {
			splitT[o.Terms[0].Agent] = 0
			singles++
		}
	}
	parent := sc.parentAug[:0]
	out := 0
	for v := 0; v < n; v++ {
		if splitT[v] >= 0 {
			splitT[v] = int32(out)
			newIndex[v] = -1
			parent = append(parent, int32(v), int32(v))
			out += 2
		} else {
			newIndex[v] = int32(out)
			parent = append(parent, int32(v))
			out++
		}
	}
	sc.parentAug = parent
	back := BackMap{kind: backMax, n: n, parent: parent}
	if handOn && singles == 0 {
		return in, back
	}
	a.Reset(out)
	if !a.Holds(mmlp.TermCount(in.Cons) + mmlp.TermCount(in.Objs)) {
		// A constraint is duplicated once per split member, and a singleton
		// objective gains its second copy.
		cons, terms := 0, mmlp.TermCount(in.Objs)+singles
		for _, c := range in.Cons {
			rows := 1
			for _, t := range c.Terms {
				if splitT[t.Agent] >= 0 {
					rows *= 2
				}
			}
			cons += rows
			terms += rows * len(c.Terms)
		}
		a.Grow(cons, len(in.Objs), terms)
	}
	// Constraints: rows containing a split agent are duplicated per copy
	// (independently for each split member, so a row with two split agents
	// yields four rows — each combination must hold for max-feasibility).
	e := &sc.emit
	*e = emitState{cons: a, splitT: splitT, newIndex: newIndex, acc: sc.acc[:0]}
	for _, c := range in.Cons {
		e.terms = c.Terms
		e.emit(0)
	}
	sc.acc = e.acc[:0]
	for _, o := range in.Objs {
		if len(o.Terms) == 1 {
			t := o.Terms[0]
			st := splitT[t.Agent]
			a.Add(int(st), t.Coef/2)
			a.Add(int(st)+1, t.Coef/2)
			a.EndObjective()
			continue
		}
		for _, t := range o.Terms {
			if st := splitT[t.Agent]; st >= 0 {
				// A split agent appearing in a multi-agent objective cannot
				// occur when |Kv| = 1, but handle it by charging copy t.
				a.Add(int(st), t.Coef)
				continue
			}
			a.Add(int(newIndex[t.Agent]), t.Coef)
		}
		a.EndObjective()
	}
	return a.Finish(), back
}

// NormalizeCoefficients implements §4.6: with |Kv| = 1, each agent's
// objective coefficient γ_v = c_{k(v)v} is divided out, i.e. the instance
// is rewritten in the variables x'_v = γ_v x_v, making every objective
// coefficient 1 and rescaling a_iv to a_iv/γ_v. Back-mapping divides by
// γ_v. Optima coincide.
func NormalizeCoefficients(in *mmlp.Instance) (*mmlp.Instance, BackMap) {
	sc := NewScratch()
	return normalizeCoefficients(in, sc, &sc.outs[4], false)
}

func normalizeCoefficients(in *mmlp.Instance, sc *Scratch, a *mmlp.Arena, handOn bool) (*mmlp.Instance, BackMap) {
	gamma := grow(&sc.gamma, in.NumAgents)
	for v := range gamma {
		gamma[v] = 1
	}
	unit := true
	for _, o := range in.Objs {
		for _, t := range o.Terms {
			gamma[t.Agent] = t.Coef
			unit = unit && t.Coef == 1
		}
	}
	back := BackMap{kind: backDivide, n: in.NumAgents, scale: gamma}
	if handOn && unit {
		return in, back
	}
	a.Reset(in.NumAgents)
	a.Grow(len(in.Cons), len(in.Objs), mmlp.TermCount(in.Cons)+mmlp.TermCount(in.Objs))
	for _, c := range in.Cons {
		for _, t := range c.Terms {
			a.Add(t.Agent, t.Coef/gamma[t.Agent])
		}
		a.EndConstraint()
	}
	for _, o := range in.Objs {
		for _, t := range o.Terms {
			a.Add(t.Agent, 1)
		}
		a.EndObjective()
	}
	return a.Finish(), back
}
