package dist

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/structured"
)

func necklaceOf(t *testing.T, m int) *structured.Instance {
	t.Helper()
	s, err := structured.FromMMLP(gen.TriNecklace(m))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// gossipOnly runs the record gossip alone on s for the given rounds and
// returns the engine and every node's gossip state.
func gossipOnly(ctx context.Context, s *structured.Instance, rounds int) (*engine, []gossip, error) {
	g := bipartite.FromInstance(s.ToMMLP())
	e := newEngine(g, nil)
	gs := make([]gossip, g.NumNodes())
	steps := make([]func(int), len(gs))
	for v := range steps {
		steps[v] = func(round int) { e.gossipStep(&gs[v], bipartite.Node(v), round) }
	}
	err := e.run(ctx, steps, rounds)
	return e, gs, err
}

// TestRunStopsAtBarrier: a context that is done before round 2 ends the
// run at round 1's barrier with its error, and both simulators return that
// error instead of a result.
func TestRunStopsAtBarrier(t *testing.T) {
	s := necklaceOf(t, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, _, err := gossipOnly(ctx, s, newSchedule(2).gather)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error = %v, want context.Canceled", err)
	}
	for i, rs := range e.perRound {
		if ran := rs.Messages > 0; ran != (i == 0) {
			t.Fatalf("round %d carried %d messages after a cancel before round 2", i+1, rs.Messages)
		}
	}
	for _, compact := range []bool{false, true} {
		res, err := solve(ctx, s, core.Options{R: 4}, compact)
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("compact=%v: got %v, %v; want context.Canceled", compact, res, err)
		}
	}
}

// TestCheckCoverage: after the gossip phase every agent holds its ball, so
// the coverage walk passes at the gather radius and names a node without a
// record one step further, on one pool entry reused for every agent as
// the t-round reuses it.
func TestCheckCoverage(t *testing.T) {
	s := necklaceOf(t, 20)
	radius := newSchedule(2).gather
	e, gs, err := gossipOnly(context.Background(), s, radius)
	if err != nil {
		t.Fatal(err)
	}
	w := &tWorker{seen: make([]uint32, e.g.NumNodes())}
	far := fmt.Sprintf("at distance %d ", radius+1)
	for v := 0; v < s.N; v++ {
		n := e.g.AgentNode(v)
		e.collectFresh(&gs[n], n)
		if err := e.checkCoverage(w, &gs[n], n, radius); err != nil {
			t.Fatalf("agent %d: %v", v, err)
		}
		if err := e.checkCoverage(w, &gs[n], n, radius+1); err == nil || !strings.Contains(err.Error(), far) {
			t.Fatalf("agent %d: walk one step past the ball returned %v, want a node %swithout a record", v, err, far)
		}
	}
}

// TestRecordStateLinear: the record protocol's memory grows with N, not
// N². Every node's gossip state is the ball it heard, which on the
// bounded-degree necklace is the same size at m = 100 and m = 1000, so a
// run at 10× the agents allocates at most 13× as much.
func TestRecordStateLinear(t *testing.T) {
	small, large := necklaceOf(t, 100), necklaceOf(t, 1000)
	alloc := func(s *structured.Instance, R int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := SolveDistributedCompact(context.Background(), s, core.Options{R: R}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	mostHeard := func(s *structured.Instance, R int) int {
		e, gs, err := gossipOnly(context.Background(), s, newSchedule(R-2).gather)
		if err != nil {
			t.Fatal(err)
		}
		most := 0
		for v := range gs {
			e.collectFresh(&gs[v], bipartite.Node(v)) // the final round's batches
			most = max(most, len(gs[v].heard))
		}
		return most
	}
	for _, R := range []int{3, 4} {
		a, b := alloc(small, R), alloc(large, R)
		if b > 13*a {
			t.Errorf("R=%d: %d agents allocated %d B, %d agents %d B: %.1f×, want ≤ 13×",
				R, small.N, a, large.N, b, float64(b)/float64(a))
		}
		if hs, hl := mostHeard(small, R), mostHeard(large, R); hs != hl {
			t.Errorf("R=%d: largest heard list %d at %d agents, %d at %d", R, hs, small.N, hl, large.N)
		}
	}
}
