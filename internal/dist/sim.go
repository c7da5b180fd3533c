package dist

import (
	"math"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/structured"
)

// The synchronous simulator: one goroutine per node of the communication
// graph, one barrier per round. In round t every node first reads the
// messages delivered at the end of round t−1 (its per-port inbox), then
// writes at most one message per port into its outbox. The coordinator
// waits for all nodes at the barrier, moves outboxes to the matching
// inboxes (port p of node n feeds port PortTo(m,n) of the neighbour m
// behind p), accounts the traffic, and releases the next round.

// message is one payload travelling over one edge in one round.
type message struct {
	has  bool
	kind msgKind
	view int32   // interned view id (view-gathering rounds)
	recs []int32 // record node ids (record-gossip rounds)
	val  float64 // scalar payload (smoothing and g± rounds)
}

// msgKind tags the wire format of a message for size accounting.
type msgKind uint8

const (
	mkNone msgKind = iota
	mkView
	mkRecords
	mkScalar
)

// scalarBytes is the wire size of a scalar message: a 1-byte phase tag and
// a float64 payload.
const scalarBytes = 1 + 8

// engine owns the mailboxes, the port topology and the traffic statistics
// of one protocol run.
type engine struct {
	g   *bipartite.Graph
	s   *structured.Instance // local inputs: constraint coefficients
	rev [][]int              // rev[n][p] = port of Neighbor(n,p) that leads back to n

	in, out [][]message // [node][port]

	store    *viewStore // nil for the record protocol
	perRound []RoundStats
}

// newEngine allocates mailboxes for every node of g and pre-resolves the
// reverse ports.
func newEngine(g *bipartite.Graph, store *viewStore) *engine {
	n := g.NumNodes()
	e := &engine{
		g:     g,
		rev:   make([][]int, n),
		in:    make([][]message, n),
		out:   make([][]message, n),
		store: store,
	}
	for v := 0; v < n; v++ {
		node := bipartite.Node(v)
		deg := g.Degree(node)
		e.rev[v] = make([]int, deg)
		e.in[v] = make([]message, deg)
		e.out[v] = make([]message, deg)
		for p := 0; p < deg; p++ {
			e.rev[v][p] = g.PortTo(g.Neighbor(node, p), node)
		}
	}
	return e
}

// send queues a message from node n through port p for delivery at the end
// of the current round.
func (e *engine) send(n bipartite.Node, p int, m message) {
	m.has = true
	e.out[n][p] = m
}

// recv returns the message delivered to port p of node n at the end of the
// previous round (has == false when the port was silent).
func (e *engine) recv(n bipartite.Node, p int) message {
	return e.in[n][p]
}

// run executes the protocol for total rounds: steps[n] is invoked once per
// round per node, concurrently across nodes, with a delivery barrier in
// between. Per-round traffic is recorded in e.perRound.
func (e *engine) run(steps []func(round int), total int) {
	n := len(steps)
	e.perRound = make([]RoundStats, total)

	start := make([]chan int, n)
	done := make(chan struct{}, n)
	var wg sync.WaitGroup
	for i := range steps {
		start[i] = make(chan int)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := range start[i] {
				steps[i](round)
				done <- struct{}{}
			}
		}(i)
	}
	for round := 1; round <= total; round++ {
		for i := range start {
			start[i] <- round
		}
		for i := 0; i < n; i++ {
			<-done
		}
		e.deliver(round)
	}
	for i := range start {
		close(start[i])
	}
	wg.Wait()
}

// deliver moves every outbox message to the matching inbox and accounts
// the round's traffic.
func (e *engine) deliver(round int) {
	rs := &e.perRound[round-1]
	// Clear inboxes first: a silent port must not replay stale messages.
	for v := range e.in {
		for p := range e.in[v] {
			e.in[v][p] = message{}
		}
	}
	for v := range e.out {
		for p := range e.out[v] {
			m := e.out[v][p]
			if !m.has {
				continue
			}
			e.out[v][p] = message{}
			wire, packed := e.sizeOf(m)
			rs.Messages++
			rs.Bytes = satAdd(rs.Bytes, wire)
			if wire > rs.MaxBytes {
				rs.MaxBytes = wire
			}
			rs.CompressedBytes += packed
			node := bipartite.Node(v)
			e.in[e.g.Neighbor(node, p)][e.rev[v][p]] = m
		}
	}
}

// sizeOf returns the wire size of a message and its DAG-compressed size
// (identical except for view messages, whose repeated subtrees the
// compressed encoding stores once).
func (e *engine) sizeOf(m message) (wire, packed int) {
	switch m.kind {
	case mkView:
		return e.store.treeBytes(m.view), e.store.dagBytes(m.view)
	case mkRecords:
		w := recordBatchBytes(e.g, m.recs)
		return w, w
	default:
		return scalarBytes, scalarBytes
	}
}

// totals folds the per-round statistics into a Stats value.
func (e *engine) totals() Stats {
	st := Stats{PerRound: e.perRound}
	for _, rs := range e.perRound {
		st.Messages += rs.Messages
		st.Bytes = satAdd(st.Bytes, rs.Bytes)
		st.CompressedBytes += rs.CompressedBytes
		if rs.MaxBytes > st.MaxMessageBytes {
			st.MaxMessageBytes = rs.MaxBytes
		}
	}
	return st
}

// satAdd is a + b for non-negative byte counts, saturating at math.MaxInt:
// a tree-encoded view doubles in size with every round, so on a small
// necklace the plain tree bytes pass any int near R = 33.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}
