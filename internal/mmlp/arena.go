package mmlp

import "slices"

// Arena builds one Instance into reusable memory: the row headers and one
// flat term backing survive across builds, so rebuilding a
// similarly-shaped instance allocates nothing. It is the one place an
// instance is built in reusable memory: CanonicalInto, canon's decoder and
// the §4 transform steps all build through it.
//
// Terms are added to the pending row, and EndConstraint or EndObjective
// seals it, with any last terms, as the next row of its section; every
// constraint is sealed before the first objective. A sealed row is never
// written again, so it may be read while the build goes on; when the
// backing moved during the build, Finish carves every row from the final
// one. The zero value is ready. Not safe for concurrent use.
type Arena struct {
	inst  Instance
	terms []Term
	start int // offset of the pending row in terms
	held  int // cap(terms) at Reset: the backing only grows, so it moved iff cap differs
}

// Reset starts a new instance with numAgents agents and no rows. Any
// instance Finish returned before is invalid from here on.
func (a *Arena) Reset(numAgents int) {
	a.inst = Instance{NumAgents: numAgents, Cons: a.inst.Cons[:0], Objs: a.inst.Objs[:0]}
	a.terms = a.terms[:0]
	a.start, a.held = 0, cap(a.terms)
}

// Grow is the capacity hint of a caller that knows its sizes: it makes
// room for cons more constraints, objs more objectives and terms more
// terms, so a cold build allocates each backing once, not once per
// doubling.
func (a *Arena) Grow(cons, objs, terms int) {
	a.inst.Cons = slices.Grow(a.inst.Cons, cons)
	a.inst.Objs = slices.Grow(a.inst.Objs, objs)
	a.terms = slices.Grow(a.terms, terms)
}

// Add appends one term to the pending row.
func (a *Arena) Add(agent int, coef float64) {
	a.terms = append(a.terms, Term{Agent: agent, Coef: coef})
}

// Pending returns the terms added since the last sealed row.
func (a *Arena) Pending() []Term { return a.terms[a.start:] }

// EndConstraint appends ts to the pending row and seals it as the next
// constraint.
func (a *Arena) EndConstraint(ts ...Term) {
	if len(a.inst.Objs) > 0 {
		panic("mmlp: Arena constraint sealed after an objective")
	}
	a.inst.Cons = append(a.inst.Cons, Constraint{Terms: a.seal(ts)})
}

// EndObjective appends ts to the pending row and seals it as the next
// objective.
func (a *Arena) EndObjective(ts ...Term) {
	a.inst.Objs = append(a.inst.Objs, Objective{Terms: a.seal(ts)})
}

func (a *Arena) seal(ts []Term) []Term {
	if len(ts) > 0 {
		a.terms = append(a.terms, ts...)
	}
	row := a.terms[a.start:len(a.terms):len(a.terms)]
	a.start = len(a.terms)
	return row
}

// Finish returns the built instance. It aliases the arena and is valid
// until the next Reset.
func (a *Arena) Finish() *Instance {
	if cap(a.terms) != a.held {
		carve(a.inst.Objs, carve(a.inst.Cons, a.terms))
	}
	return &a.inst
}

// carve points each row at its terms in the backing, in seal order, and
// returns the rest of the backing.
func carve[R Row](rows []R, terms []Term) []Term {
	for i, r := range rows {
		n := len(Constraint(r).Terms)
		rows[i] = R(Constraint{Terms: terms[:n:n]})
		terms = terms[n:]
	}
	return terms
}
