package delta

import (
	"fmt"
	"slices"

	"repro/internal/reuse"
	"repro/internal/structured"
)

// Plan computes the dirty agent set of an edit: every agent within the
// given bipartite radius (in hops of the agent↔row incidence graph) of a
// positionally changed row, measured over the UNION of the old and new
// topologies. radius must be core.TRadius(r) = 4r+3 — the input radius of
// the kernel value t_u — for the splice to be exact: an agent outside
// every changed row's (4r+3)-ball has a positionally identical ball in
// both instances, so its t_u is bit-identical and can be spliced from the
// base record. One hop too small misses agents whose t_u reads an edited
// row at exactly distance 4r+3 (the regression tests pin this).
//
// Rows are compared positionally — position i of sOld against position i
// of sNew — because the kernel reads the structured form positionally:
// iteration order over ConsOf lists and objective members is part of an
// agent's local input (it perturbs float summation order). Trailing rows
// present in only one instance count as changed. The instances must have
// the same agent count; the caller falls back to a cold solve otherwise.
//
// The returned agent indices are sorted ascending. The BFS is hop-exact
// (one edge per level), so callers can rely on the radius semantics
// exactly.
func Plan(sOld, sNew *structured.Instance, radius int) ([]int, error) {
	dirty, _, err := new(Scratch).Plan(sOld, sNew, radius, radius)
	return dirty, err
}

// Scratch is the reusable working memory of one worker's plans: the BFS's
// visit stamps and frontiers, and the two result lists. The zero value is
// ready. Not safe for concurrent use.
type Scratch struct {
	// Visit stamps: an entry equal to epoch was reached by the current
	// BFS. The epoch only grows, so stale entries never need clearing.
	consAt, objAt, agentAt []uint64
	epoch                  uint64

	consF, objF, agentsF []int32
	dirty, ball          []int
}

// Plan is the package-level Plan run once, to two radii: dirty lists the
// agents within tRadius of a changed row and ball those within ballRadius
// (at least tRadius). With tRadius = core.TRadius(r) and ballRadius =
// core.OutputRadius(r), dirty is the t-set a splice re-prices and ball
// the agents whose s, g± and x it must re-derive — outside it every output
// is the base's. Both lists are sorted ascending, never nil, and alias
// ps until its next use. Only the changed-row scan is O(rows); the BFS
// touches the ball alone.
func (ps *Scratch) Plan(sOld, sNew *structured.Instance, tRadius, ballRadius int) (dirty, ball []int, err error) {
	if sOld.N != sNew.N {
		return nil, nil, fmt.Errorf("delta: agent counts differ (old %d, new %d)", sOld.N, sNew.N)
	}
	ballRadius = max(ballRadius, tRadius)
	nCons := max(len(sOld.ConsV), len(sNew.ConsV))
	nObjs := max(len(sOld.Objs), len(sNew.Objs))
	ps.epoch++
	ep := ps.epoch
	consAt := reuse.Grow(&ps.consAt, nCons)
	objAt := reuse.Grow(&ps.objAt, nObjs)
	agentAt := reuse.Grow(&ps.agentAt, sOld.N)
	dirty, ball = ps.dirty[:0], ps.ball[:0]
	if dirty == nil {
		dirty, ball = make([]int, 0, 64), make([]int, 0, 256)
	}

	// Level 0: the positionally changed rows.
	consF, objF := ps.consF[:0], ps.objF[:0]
	for i := 0; i < nCons; i++ {
		if consRowChanged(sOld, sNew, i) {
			consAt[i] = ep
			consF = append(consF, int32(i))
		}
	}
	for k := 0; k < nObjs; k++ {
		if objRowChanged(sOld, sNew, k) {
			objAt[k] = ep
			objF = append(objF, int32(k))
		}
	}

	// Alternating frontier expansion: rows at even levels, agents at odd
	// levels. An agent joins the ball (and, within tRadius, the dirty set)
	// when first reached, i.e. at its true hop distance from the nearest
	// changed row; expansion stops as soon as no further agent could still
	// be within ballRadius.
	agentsF := ps.agentsF[:0]
	dist := 0
	for len(consF)+len(objF) > 0 && dist < ballRadius {
		agentsF = agentsF[:0]
		dist++ // the agents reached now sit at distance dist ≤ ballRadius
		visit := func(v int32) {
			if agentAt[v] != ep {
				agentAt[v] = ep
				agentsF = append(agentsF, v)
				ball = append(ball, int(v))
				if dist <= tRadius {
					dirty = append(dirty, int(v))
				}
			}
		}
		for _, i := range consF {
			if int(i) < len(sOld.ConsV) {
				visit(sOld.ConsV[i][0])
				visit(sOld.ConsV[i][1])
			}
			if int(i) < len(sNew.ConsV) {
				visit(sNew.ConsV[i][0])
				visit(sNew.ConsV[i][1])
			}
		}
		for _, k := range objF {
			if int(k) < len(sOld.Objs) {
				for _, v := range sOld.Objs[k] {
					visit(v)
				}
			}
			if int(k) < len(sNew.Objs) {
				for _, v := range sNew.Objs[k] {
					visit(v)
				}
			}
		}
		// The next agents would sit at dist+2; stop if they cannot qualify.
		if dist+2 > ballRadius || len(agentsF) == 0 {
			break
		}
		consF, objF = consF[:0], objF[:0]
		for _, v := range agentsF {
			for _, i := range sOld.ConsOf[v] {
				if consAt[i] != ep {
					consAt[i] = ep
					consF = append(consF, i)
				}
			}
			for _, i := range sNew.ConsOf[v] {
				if consAt[i] != ep {
					consAt[i] = ep
					consF = append(consF, i)
				}
			}
			if k := sOld.ObjOf[v]; objAt[k] != ep {
				objAt[k] = ep
				objF = append(objF, k)
			}
			if k := sNew.ObjOf[v]; objAt[k] != ep {
				objAt[k] = ep
				objF = append(objF, k)
			}
		}
		dist++ // consF/objF sit at distance dist
	}
	ps.consF, ps.objF, ps.agentsF = consF, objF, agentsF
	slices.Sort(dirty)
	slices.Sort(ball)
	ps.dirty, ps.ball = dirty, ball
	return dirty, ball, nil
}

// consRowChanged reports a positional difference of constraint row i.
func consRowChanged(a, b *structured.Instance, i int) bool {
	if i >= len(a.ConsV) || i >= len(b.ConsV) {
		return true
	}
	return a.ConsV[i] != b.ConsV[i] || a.ConsA[i] != b.ConsA[i]
}

// objRowChanged reports a positional difference of objective row k.
func objRowChanged(a, b *structured.Instance, k int) bool {
	if k >= len(a.Objs) || k >= len(b.Objs) {
		return true
	}
	ma, mb := a.Objs[k], b.Objs[k]
	if len(ma) != len(mb) {
		return true
	}
	for j := range ma {
		if ma[j] != mb[j] {
			return true
		}
	}
	return false
}
