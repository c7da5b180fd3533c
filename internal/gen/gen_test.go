package gen

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/simplex"
	"repro/internal/structured"
)

func TestRandomStrictlyValidAndBounded(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		cfg := RandomConfig{Agents: 10, MaxDegI: 3, MaxDegK: 4, ExtraCons: 3, ExtraObjs: 2}
		in := Random(cfg, seed)
		if err := in.ValidateStrict(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if in.DegreeI() > cfg.MaxDegI || in.DegreeK() > cfg.MaxDegK {
			t.Fatalf("seed %d: degrees %d/%d exceed bounds", seed, in.DegreeI(), in.DegreeK())
		}
	}
}

func TestRandomZeroOne(t *testing.T) {
	in := Random(RandomConfig{Agents: 8, MaxDegI: 2, MaxDegK: 2, ZeroOne: true}, 3)
	for _, c := range in.Cons {
		for _, tm := range c.Terms {
			if tm.Coef != 1 {
				t.Fatalf("non-unit coefficient %v", tm.Coef)
			}
		}
	}
	for _, o := range in.Objs {
		for _, tm := range o.Terms {
			if tm.Coef != 1 {
				t.Fatalf("non-unit objective coefficient %v", tm.Coef)
			}
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	cfg := RandomConfig{Agents: 12, MaxDegI: 3, MaxDegK: 3, ExtraCons: 2}
	a := Random(cfg, 99)
	b := Random(cfg, 99)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different instances")
	}
	c := Random(cfg, 100)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical instances")
	}
}

func TestRandomConnected(t *testing.T) {
	in := Random(RandomConfig{Agents: 15, MaxDegI: 3, MaxDegK: 3}, 5)
	if !bipartite.FromInstance(in).Connected() {
		t.Fatal("covering rows should chain the graph connected")
	}
}

func TestRandomStructuredIsStructured(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		in := RandomStructured(StructuredConfig{Objectives: 5, MaxDegK: 4, ExtraCons: 3}, seed)
		if _, err := structured.FromMMLP(in); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRandomStructuredUnitCoefs(t *testing.T) {
	in := RandomStructured(StructuredConfig{Objectives: 3, MaxDegK: 3, UnitCoefs: true}, 1)
	for _, c := range in.Cons {
		for _, tm := range c.Terms {
			if tm.Coef != 1 {
				t.Fatalf("non-unit constraint coefficient %v", tm.Coef)
			}
		}
	}
}

func TestTriNecklaceShapeAndGirth(t *testing.T) {
	m := 6
	in := TriNecklace(m)
	if _, err := structured.FromMMLP(in); err != nil {
		t.Fatalf("not structured: %v", err)
	}
	if in.NumAgents != 3*m || len(in.Cons) != 2*m || len(in.Objs) != m {
		t.Fatalf("shape wrong: %v", in.Stats())
	}
	if in.DegreeK() != 3 || in.DegreeI() != 2 {
		t.Fatalf("degrees: ΔK=%d ΔI=%d", in.DegreeK(), in.DegreeI())
	}
	// C_k–K_k–R_k–I–L_{k+1}–K_{k+1}–C_{k+1}–I–C_k closes an 8-cycle for
	// every m; the band symmetry, not the girth, is the adversarial property.
	if g := bipartite.FromInstance(in).Girth(); g != 8 {
		t.Fatalf("girth = %d, want 8", g)
	}
}

func TestTriNecklaceOptimum(t *testing.T) {
	in := TriNecklace(6)
	r := simplex.SolveMaxMin(in)
	if r.Status != simplex.Optimal {
		t.Fatalf("status %v", r.Status)
	}
	// l + r ≤ 1 around the ring and 2c ≤ 1 at the symmetric point give
	// opt = 3/2 (l = 1, r = 0 alternating also achieves 3/2).
	if math.Abs(r.Value-1.5) > 1e-9 {
		t.Fatalf("optimum = %v, want 1.5", r.Value)
	}
}

func TestLayeredNecklaceShapeAndLayers(t *testing.T) {
	m := 6
	in, agentLayer, objLayer := LayeredNecklace(m)
	if _, err := structured.FromMMLP(in); err != nil {
		t.Fatalf("not structured: %v", err)
	}
	if len(agentLayer) != 3*m || len(objLayer) != m {
		t.Fatal("layer slices wrong length")
	}
	// Layer classes: objectives ≡ 0, down ≡ 1, up ≡ 3 (mod 4) — Lemma 8.
	for k, l := range objLayer {
		if ((l%4)+4)%4 != 0 {
			t.Fatalf("objective %d layer %d not ≡ 0 mod 4", k, l)
		}
	}
	ups, downs := 0, 0
	for v, l := range agentLayer {
		switch ((l % 4) + 4) % 4 {
		case 1:
			downs++
		case 3:
			ups++
		default:
			t.Fatalf("agent %d layer %d not ≡ ±1 mod 4", v, l)
		}
	}
	if ups != m || downs != 2*m {
		t.Fatalf("ups=%d downs=%d, want %d/%d", ups, downs, m, 2*m)
	}
	// Every constraint joins a down agent at ℓ and an up agent at ℓ+2
	// (mod 4m around the cycle).
	period := 4 * m
	for i, c := range in.Cons {
		l0 := agentLayer[c.Terms[0].Agent]
		l1 := agentLayer[c.Terms[1].Agent]
		d := ((l1-l0)%period + period) % period
		if d != 2 && d != period-2 {
			t.Fatalf("constraint %d joins layers %d and %d", i, l0, l1)
		}
	}
	// Every objective has exactly one up agent.
	for k, o := range in.Objs {
		ups := 0
		for _, tm := range o.Terms {
			if ((agentLayer[tm.Agent]%4)+4)%4 == 3 {
				ups++
			}
		}
		if ups != 1 {
			t.Fatalf("objective %d has %d up agents", k, ups)
		}
	}
}

func TestSensorGridBipartiteForm(t *testing.T) {
	in := SensorGrid(SensorGridConfig{Width: 4, Height: 4, Sensors: 6, Fan: 3}, 11)
	if err := in.ValidateStrict(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	inc := in.Incidence()
	for v := 0; v < in.NumAgents; v++ {
		if len(inc.ConsOf[v]) != 1 || len(inc.ObjsOf[v]) != 1 {
			t.Fatalf("agent %d not bipartite: %d cons, %d objs",
				v, len(inc.ConsOf[v]), len(inc.ObjsOf[v]))
		}
	}
	if len(in.Objs) != 6 {
		t.Fatalf("objectives = %d, want one per sensor", len(in.Objs))
	}
	// Energy coefficients grow with distance: all ≥ 1.
	for _, c := range in.Cons {
		for _, tm := range c.Terms {
			if tm.Coef < 1 {
				t.Fatalf("energy coefficient %v < 1", tm.Coef)
			}
		}
	}
}

func TestBandwidthShape(t *testing.T) {
	cfg := BandwidthConfig{Links: 12, Customers: 5, PathsPerCustomer: 3, MaxPathLen: 4}
	in := Bandwidth(cfg, 13)
	if err := in.ValidateStrict(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if len(in.Objs) != cfg.Customers {
		t.Fatalf("objectives = %d", len(in.Objs))
	}
	if in.NumAgents != cfg.Customers*cfg.PathsPerCustomer {
		t.Fatalf("agents = %d", in.NumAgents)
	}
	// Paths of length > 1 put agents in several constraints.
	inc := in.Incidence()
	multi := 0
	for v := 0; v < in.NumAgents; v++ {
		if len(inc.ConsOf[v]) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-link path generated; ΔI structure untested")
	}
}

func TestLayeredTreeIsAStructuredTree(t *testing.T) {
	for _, depth := range []int{1, 2, 3} {
		in := LayeredTree(depth)
		if _, err := structured.FromMMLP(in); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		g := bipartite.FromInstance(in)
		// All cycles live inside the anchor gadgets: girth 4, and the
		// cyclomatic number E − V + C equals the number of anchors.
		if got := g.Girth(); got != 4 {
			t.Fatalf("depth %d: girth %d, want 4 (anchor gadgets only)", depth, got)
		}
		edges := 0
		for n := 0; n < g.NumNodes(); n++ {
			edges += g.Degree(bipartite.Node(n))
		}
		edges /= 2
		comps := len(g.Components())
		anchors := 1 + 2*(1<<(depth-1)) // root + leaf down-agents
		if cyc := edges - g.NumNodes() + comps; cyc != anchors {
			t.Fatalf("depth %d: %d independent cycles, want %d (one per anchor)", depth, cyc, anchors)
		}
	}
	// depth 2: tiers of 1+2 objectives (9 agents) + anchors for the root's
	// up-agent and 4 leaf down-agents (5 gadgets × 2 agents).
	in := LayeredTree(2)
	if in.NumAgents != 9+10 {
		t.Fatalf("agents = %d, want 19", in.NumAgents)
	}
	if len(in.Objs) != 3+5 {
		t.Fatalf("objectives = %d, want 8", len(in.Objs))
	}
}

func TestLayeredTreeSolvable(t *testing.T) {
	in := LayeredTree(3)
	r := simplex.SolveMaxMin(in)
	if r.Status != simplex.Optimal {
		t.Fatalf("status %v", r.Status)
	}
	if r.Value <= 0 {
		t.Fatalf("optimum %v not positive", r.Value)
	}
}

func TestEquationsOptimumIsOne(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		in := Equations(EquationsConfig{Vars: 4, Rows: 4, Density: 0.5}, seed)
		if err := in.ValidateStrict(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r := simplex.SolveMaxMin(in)
		if r.Status != simplex.Optimal {
			t.Fatalf("seed %d: %v", seed, r.Status)
		}
		if math.Abs(r.Value-1) > 1e-7 {
			t.Fatalf("seed %d: optimum %v, want 1 (solvable system)", seed, r.Value)
		}
		if d := Opt1Distance(in, r.X); d > 1e-7 {
			t.Fatalf("seed %d: optimal solution at distance %v", seed, d)
		}
	}
}
