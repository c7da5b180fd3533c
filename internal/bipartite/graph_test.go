package bipartite

import (
	"testing"

	"repro/internal/mmlp"
)

// pathInstance builds a genuine path: consecutive agents joined
// alternately by a constraint and an objective, V0 -I- V1 -K- V2 -I- V3 …
func pathInstance(n int) *mmlp.Instance {
	in := mmlp.New(n)
	for v := 0; v+1 < n; v++ {
		if v%2 == 0 {
			in.AddConstraint(float64(v), 1, float64(v+1), 1)
		} else {
			in.AddObjective(float64(v), 1, float64(v+1), 1)
		}
	}
	return in
}

// ladderInstance joins every consecutive agent pair with both a constraint
// and an objective, so agent j has ports to two constraints and two
// objectives; contains 4-cycles by construction.
func ladderInstance(n int) *mmlp.Instance {
	in := mmlp.New(n)
	for v := 0; v+1 < n; v++ {
		in.AddConstraint(float64(v), 1, float64(v+1), 1)
		in.AddObjective(float64(v), 1, float64(v+1), 1)
	}
	return in
}

// cycleInstance joins n agents into a ring with constraints and objectives
// alternating between consecutive agents.
func cycleInstance(n int) *mmlp.Instance {
	in := mmlp.New(n)
	for v := 0; v < n; v++ {
		w := (v + 1) % n
		if v%2 == 0 {
			in.AddConstraint(float64(v), 1, float64(w), 1)
		} else {
			in.AddObjective(float64(v), 1, float64(w), 1)
		}
	}
	return in
}

func TestFromInstanceCountsAndKinds(t *testing.T) {
	in := ladderInstance(3)
	g := FromInstance(in)
	if g.NumNodes() != 3+2+2 {
		t.Fatalf("NumNodes = %d, want 7", g.NumNodes())
	}
	if g.NumAgents() != 3 || g.NumConstraints() != 2 || g.NumObjectives() != 2 {
		t.Fatalf("counts wrong: %d %d %d", g.NumAgents(), g.NumConstraints(), g.NumObjectives())
	}
	if g.Kind(g.AgentNode(0)) != KindAgent {
		t.Fatal("agent node misclassified")
	}
	if g.Kind(g.ConstraintNode(1)) != KindConstraint {
		t.Fatal("constraint node misclassified")
	}
	if g.Kind(g.ObjectiveNode(1)) != KindObjective {
		t.Fatal("objective node misclassified")
	}
	for _, n := range []Node{g.AgentNode(2), g.ConstraintNode(0), g.ObjectiveNode(1)} {
		if g.Kind(n) == KindAgent && g.Index(n) != 2 {
			t.Fatalf("Index(%d) = %d", n, g.Index(n))
		}
	}
	if g.Index(g.ConstraintNode(1)) != 1 || g.Index(g.ObjectiveNode(1)) != 1 {
		t.Fatal("Index does not invert typed constructors")
	}
}

func TestKindString(t *testing.T) {
	if KindAgent.String() != "agent" || KindConstraint.String() != "constraint" || KindObjective.String() != "objective" {
		t.Fatal("Kind.String names wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestPortOrderIsDeterministic(t *testing.T) {
	in := ladderInstance(3)
	g := FromInstance(in)
	// Agent 1 sits in constraints 0 and 1 and objectives 0 and 1; ports must
	// list constraints first in row order, then objectives in row order.
	v1 := g.AgentNode(1)
	want := []Node{g.ConstraintNode(0), g.ConstraintNode(1), g.ObjectiveNode(0), g.ObjectiveNode(1)}
	got := g.Neighbors(v1)
	if len(got) != len(want) {
		t.Fatalf("agent 1 degree = %d, want %d", len(got), len(want))
	}
	for p := range want {
		if got[p] != want[p] {
			t.Fatalf("port %d of agent 1 = %v, want %v", p, got[p], want[p])
		}
	}
	// Constraint 0 lists its agents in term order: 0 then 1.
	c0 := g.ConstraintNode(0)
	if g.Neighbor(c0, 0) != g.AgentNode(0) || g.Neighbor(c0, 1) != g.AgentNode(1) {
		t.Fatalf("constraint 0 ports wrong: %v", g.Neighbors(c0))
	}
}

func TestPortTo(t *testing.T) {
	g := FromInstance(ladderInstance(3))
	v1 := g.AgentNode(1)
	if p := g.PortTo(v1, g.ObjectiveNode(1)); p != 3 {
		t.Fatalf("PortTo = %d, want 3", p)
	}
	if p := g.PortTo(g.AgentNode(0), g.AgentNode(2)); p != -1 {
		t.Fatalf("non-adjacent PortTo = %d, want -1", p)
	}
}

func TestBallAndDist(t *testing.T) {
	g := FromInstance(pathInstance(5))
	v0 := g.AgentNode(0)
	nodes, dist := g.Ball(v0, 2)
	// radius 2 from V0 on the alternating path: V0, I0, V1.
	if len(nodes) != 3 {
		t.Fatalf("ball size = %d, want 3: %v", len(nodes), nodes)
	}
	for j, n := range nodes {
		if want := g.Dist(v0, n); want != dist[j] {
			t.Fatalf("dist mismatch for node %v: ball %d, Dist %d", n, dist[j], want)
		}
	}
	if d := g.Dist(v0, g.AgentNode(4)); d != 8 {
		t.Fatalf("Dist(V0,V4) = %d, want 8", d)
	}
	if d := g.Dist(v0, v0); d != 0 {
		t.Fatalf("Dist(v,v) = %d", d)
	}
}

func TestDistAcrossComponents(t *testing.T) {
	in := mmlp.New(2)
	in.AddConstraint(0, 1)
	in.AddConstraint(1, 1)
	g := FromInstance(in)
	if d := g.Dist(g.AgentNode(0), g.AgentNode(1)); d != -1 {
		t.Fatalf("cross-component Dist = %d, want -1", d)
	}
}

func TestAgentsWithin(t *testing.T) {
	g := FromInstance(pathInstance(5))
	got := g.AgentsWithin(2, 2)
	want := map[int]bool{1: true, 2: true, 3: true}
	if len(got) != 3 {
		t.Fatalf("AgentsWithin = %v, want 3 agents", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("AgentsWithin contains unexpected agent %d", v)
		}
	}
	if g.AgentsWithin(0, 0)[0] != 0 {
		t.Fatal("radius-0 ball should contain only the center")
	}
}

func TestComponentsAndConnected(t *testing.T) {
	g := FromInstance(pathInstance(4))
	if !g.Connected() {
		t.Fatal("path should be connected")
	}
	in := mmlp.New(3)
	in.AddConstraint(0, 1, 1, 1)
	// agent 2 is isolated
	g2 := FromInstance(in)
	comps := g2.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if g2.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestGirth(t *testing.T) {
	if g := FromInstance(pathInstance(4)); g.Girth() != -1 {
		t.Fatalf("path girth = %d, want -1", g.Girth())
	}
	if g := FromInstance(ladderInstance(3)); g.Girth() != 4 {
		t.Fatalf("ladder girth = %d, want 4", g.Girth())
	}
	// Ring of 6 agents alternating constraint/objective → cycle length 12.
	g := FromInstance(cycleInstance(6))
	if got := g.Girth(); got != 12 {
		t.Fatalf("cycle girth = %d, want 12", got)
	}
	// Two agents sharing two different constraints → 4-cycle.
	in := mmlp.New(2)
	in.AddConstraint(0, 1, 1, 1)
	in.AddConstraint(0, 1, 1, 2)
	if got := FromInstance(in).Girth(); got != 4 {
		t.Fatalf("doubled constraint girth = %d, want 4", got)
	}
}
