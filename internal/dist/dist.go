package dist

import (
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/structured"
)

// RoundStats is the traffic of one synchronous round.
type RoundStats struct {
	// Messages and Bytes total the round's traffic; MaxBytes is its
	// largest single message. Byte counts saturate at math.MaxInt.
	Messages, Bytes, MaxBytes int
	// CompressedBytes re-counts view messages at their DAG-compressed
	// size (equal to Bytes in rounds without view messages).
	CompressedBytes int
}

// Stats aggregates the traffic of a protocol run.
type Stats struct {
	// Messages and Bytes total the traffic of all rounds; Bytes saturates
	// at math.MaxInt.
	Messages, Bytes int
	// MaxMessageBytes is the largest single message of the run, dominated
	// by the view-gathering phase: it grows with R but not with the
	// network size.
	MaxMessageBytes int
	// CompressedBytes totals the DAG-compressed message sizes.
	CompressedBytes int
	// PerRound holds one entry per round; the final round carries no
	// messages (the output (18) is evaluated locally).
	PerRound []RoundStats
}

// Result is the outcome of a distributed run.
type Result struct {
	// Rounds is the number of synchronous rounds, 12(R−2)+8 — a function
	// of R only, independent of the instance.
	Rounds int
	// T[u] is the per-agent bound t_u of §5.2 (min_u T[u] certifies the
	// optimum from above, Lemma 2); X is the output (18). Both are
	// bit-identical to the corresponding fields of core.Solve's Trace.
	T, X []float64
	// Stats reports the communication volume.
	Stats Stats
}

// SolveDistributed runs the §5 algorithm as the anonymous view-gathering
// protocol: nodes carry no identifiers, and stage 1 ships radius-(4r+3)
// views as trees (counted tree-encoded in Stats.Bytes and DAG-compressed
// in Stats.CompressedBytes). Options.Workers is ignored — the parallelism
// is one goroutine per network node.
func SolveDistributed(s *structured.Instance, opt core.Options) (*Result, error) {
	return solve(s, opt, false)
}

// SolveDistributedCompact runs the same algorithm as the identifier-based
// record-gossip protocol: polynomial message sizes, identical outputs.
func SolveDistributedCompact(s *structured.Instance, opt core.Options) (*Result, error) {
	return solve(s, opt, true)
}

func solve(s *structured.Instance, opt core.Options, compact bool) (*Result, error) {
	opt, err := opt.Normalized()
	if err != nil {
		return nil, err
	}
	sch := newSchedule(opt.R - 2)
	g := bipartite.FromInstance(s.ToMMLP())
	var store *viewStore
	if !compact {
		store = newViewStore()
	}
	e := newEngine(g, store)
	e.s = s

	newGossip := func() *gossip {
		if !compact {
			return nil
		}
		return &gossip{known: make([]bool, g.NumNodes())}
	}
	steps := make([]func(int), g.NumNodes())
	agents := make([]*agentNode, s.N)
	for v := 0; v < s.N; v++ {
		a := &agentNode{
			e: e, sch: sch, id: g.AgentNode(v),
			deg: g.Degree(g.AgentNode(v)), R: opt.R, binIters: opt.BinIters,
			gp: make([]float64, sch.r+1), gm: make([]float64, sch.r+1),
			gs: newGossip(),
		}
		a.objPort = a.deg - 1
		agents[v] = a
		steps[a.id] = a.step
	}
	for i := range s.ConsV {
		c := &consNode{e: e, sch: sch, id: g.ConstraintNode(i), coefs: s.ConsA[i], gs: newGossip()}
		steps[c.id] = c.step
	}
	for k := range s.Objs {
		o := &objNode{e: e, sch: sch, id: g.ObjectiveNode(k), gs: newGossip()}
		o.deg = g.Degree(o.id)
		o.vals = make([]float64, o.deg)
		steps[o.id] = o.step
	}

	e.run(steps, sch.total)

	res := &Result{Rounds: sch.total, T: make([]float64, s.N), X: make([]float64, s.N)}
	for v, a := range agents {
		if a.err != nil {
			return nil, a.err
		}
		res.T[v] = a.t
		res.X[v] = a.x
	}
	res.Stats = e.totals()
	return res, nil
}
