package dist

import (
	"fmt"
	"slices"

	"repro/internal/bipartite"
	"repro/internal/core"
)

// The compact protocol trades anonymity for polynomial messages: every
// node carries a unique identifier and gossips *records* — its own local
// description, keyed by its id — instead of anonymous view trees. An agent
// record lists the ids of the agent's constraints (in port order) and its
// objective; a constraint record lists its two agent ids and coefficients;
// an objective record lists its member ids in port order. A record is
// forwarded on every port the round after it is first learned, so after
// 4r+3 rounds a node knows exactly the records of its radius-(4r+3)
// neighbourhood, and it keeps nothing else. Because records carry the
// original row orderings, the reconstructed neighbourhood is literally the
// local restriction of the structured instance, and each agent prices t_u
// on the centralised kernel unchanged: the core.Evaluator of a worker
// borrowed from the engine's pool of GOMAXPROCS. Outputs are bit-identical
// to both core.Solve and the anonymous-view protocol.
//
// Message sizes are polynomial: a record is O(degree) bytes and each of
// the O(radius · |E|) record transfers ships a record at most once per
// edge direction.

// recordBytes is the wire size of one record: kind (1), id (4), neighbour
// count (2), 4 bytes per neighbour id, plus the two coefficients for
// constraint records.
func recordBytes(g *bipartite.Graph, id int32) int {
	b := 1 + 4 + 2 + 4*g.Degree(bipartite.Node(id))
	if g.Kind(bipartite.Node(id)) == bipartite.KindConstraint {
		b += 16
	}
	return b
}

// recordBatchBytes is the wire size of a gossip message: a 2-byte count
// plus its records.
func recordBatchBytes(g *bipartite.Graph, recs []int32) int {
	b := 2
	for _, id := range recs {
		b += recordBytes(g, id)
	}
	return b
}

// gossip is the per-node record state: the ids of the records the node
// has heard, ascending. It holds the node's radius-(4r+3) ball and nothing
// else, so the simulator's memory grows with N, not with N².
type gossip struct {
	heard []int32
}

// gossipStep forwards newly learned records on every port. Round 1 seeds
// the flood with the node's own record; later rounds forward what arrived
// in the previous round, deduplicated and id-sorted for determinism.
func (e *engine) gossipStep(gs *gossip, n bipartite.Node, round int) {
	var fresh []int32
	if round == 1 {
		gs.heard = []int32{int32(n)}
		fresh = []int32{int32(n)}
	} else {
		fresh = e.collectFresh(gs, n)
	}
	if len(fresh) == 0 {
		return
	}
	for p := 0; p < e.g.Degree(n); p++ {
		e.send(n, p, message{kind: mkRecords, recs: fresh})
	}
}

// collectFresh drains the node's inbox, adds the ids not heard before to
// gs.heard, and returns them, sorted ascending. The batch is sized once
// from the inbox, and the new ids merge into gs.heard from the back, in
// place: both lists are sorted, so the merge needs no sort.
func (e *engine) collectFresh(gs *gossip, n bipartite.Node) []int32 {
	size := 0
	for p := 0; p < e.g.Degree(n); p++ {
		if m := e.recv(n, p); m.has && m.kind == mkRecords {
			size += len(m.recs)
		}
	}
	fresh := make([]int32, 0, size)
	for p := 0; p < e.g.Degree(n); p++ {
		if m := e.recv(n, p); m.has && m.kind == mkRecords {
			fresh = append(fresh, m.recs...)
		}
	}
	slices.Sort(fresh)
	fresh = slices.Compact(fresh)
	fresh = slices.DeleteFunc(fresh, func(id int32) bool {
		_, ok := slices.BinarySearch(gs.heard, id)
		return ok
	})
	h := len(gs.heard)
	gs.heard = slices.Grow(gs.heard, len(fresh))[:h+len(fresh)]
	for i, j, k := h-1, len(fresh)-1, len(gs.heard)-1; j >= 0; k-- {
		if i >= 0 && gs.heard[i] > fresh[j] {
			gs.heard[k], i = gs.heard[i], i-1
		} else {
			gs.heard[k], j = fresh[j], j-1
		}
	}
	return fresh
}

// tWorker is one entry of the engine's t-round pool: an evaluator, and
// the visit stamps and queue of the coverage walk, so an agent's t-round
// allocates nothing.
type tWorker struct {
	ev    *core.Evaluator
	seen  []uint32 // seen[v] == gen: v is in the current walk's queue
	gen   uint32
	queue []bipartite.Node
}

// checkCoverage verifies the locality contract of the gossip phase: every
// node within graph distance radius of n — everything the t_u recursion
// can touch — has delivered its record. The walk goes level by level on
// w's stamps and queue.
func (e *engine) checkCoverage(w *tWorker, gs *gossip, n bipartite.Node, radius int) error {
	w.gen++
	w.seen[n] = w.gen
	w.queue = append(w.queue[:0], n)
	for depth, head := 0, 0; head < len(w.queue); depth++ {
		for end := len(w.queue); head < end; head++ {
			v := w.queue[head]
			if _, ok := slices.BinarySearch(gs.heard, int32(v)); !ok {
				return fmt.Errorf("dist: node %d at distance %d from %d has no record after %d rounds",
					v, depth, n, radius)
			}
			if depth == radius {
				continue
			}
			for _, u := range e.g.Neighbors(v) {
				if w.seen[u] != w.gen {
					w.seen[u] = w.gen
					w.queue = append(w.queue, u)
				}
			}
		}
	}
	return nil
}

// recComputeT finishes the gossip (folding the final round's batches),
// checks coverage, and computes t_u on the reconstructed neighbourhood —
// which is the local restriction of the structured instance, so the
// centralised kernel applies verbatim. The checked radius-(4r+3) ball
// holds everything the t_u recursion can reach (bipartite distance
// ≤ 4r+2), so the node prices t_u on a worker taken from the engine's
// pool: every agent runs in the same round, and the pool keeps the
// evaluators and walk buffers in flight at GOMAXPROCS instead of one per
// agent.
func (a *agentNode) recComputeT() (float64, error) {
	e := a.e
	e.collectFresh(a.gs, a.id)
	w := <-e.tpool
	defer func() { e.tpool <- w }()
	if err := e.checkCoverage(w, a.gs, a.id, a.sch.gather); err != nil {
		return 0, err
	}
	return w.ev.ComputeT(int32(a.id), a.binIters), nil
}
