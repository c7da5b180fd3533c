package dist

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/structured"
)

// The anonymous view-gathering protocol (§1.2, §3 of the paper; the model
// of the companion papers arXiv:0710.1499 and arXiv:0804.4815): nodes have
// no identifiers, only port numbers. In round 1 every node sends, through
// every port p, a one-node description of itself ("I reach you through my
// port p"). In round t it sends through port p the combination of its own
// description with the round-(t−1) messages of all other ports. After
// round t the receiver behind port p holds the depth-(t−1) truncated
// unfolding rooted at the sender, with the branch towards the receiver
// removed — assembling the root's own description with the final messages
// of all its ports yields exactly unfold.Truncated(g, root, t).
//
// Messages are trees, so their wire size grows exponentially with the
// radius; Stats.Bytes counts that tree encoding. The standard fix re-codes
// a view as a DAG with repeated subtrees stored once (every subtree is
// determined by its structure, so equal subtrees collapse);
// Stats.CompressedBytes counts that encoding. The simulator hash-conses
// view trees for the same reason, which keeps the simulation polynomial
// while remaining observationally identical to shipping the full trees.

// viewNode is one interned view tree. fromPort is the sender's port toward
// the recipient (−1 for a view assembled at its root); children holds the
// interned subtrees of every other port in increasing port order, and is
// shorter than deg−1 only at the truncation frontier (where it is empty).
type viewNode struct {
	kind     bipartite.Kind
	deg      int
	fromPort int
	coefs    [2]float64 // constraint nodes: a_iv per port
	children []int32
	tree     int // encoded size of the full tree, in bytes, saturating at math.MaxInt
}

// viewHdrBytes is the per-node encoding overhead: kind (1), degree (2),
// fromPort (2), plus the two coefficients for constraint nodes.
func (n *viewNode) hdrBytes() int {
	if n.kind == bipartite.KindConstraint {
		return 5 + 16
	}
	return 5
}

// viewStore hash-conses view trees. Interning runs concurrently from the
// node goroutines under the mutex; node lookups go through an atomic
// snapshot of the id table, which is safe lock-free because interned
// nodes are immutable and an id only reaches a reader after the intern
// that created it (the round barrier orders the two).
type viewStore struct {
	mu    sync.Mutex
	byKey map[string]int32
	nodes []viewNode
	snap  atomic.Value  // []viewNode, updated on every intern
	dag   map[int32]int // memoised DAG-encoded sizes
}

func newViewStore() *viewStore {
	vs := &viewStore{byKey: map[string]int32{}, dag: map[int32]int{}}
	vs.snap.Store([]viewNode(nil))
	return vs
}

// intern returns the id of the described view tree, allocating it on first
// sight.
func (vs *viewStore) intern(kind bipartite.Kind, deg, fromPort int, coefs [2]float64, children []int32) int32 {
	key := make([]byte, 0, 13+16+4*len(children))
	key = append(key, byte(kind))
	key = binary.BigEndian.AppendUint16(key, uint16(deg))
	key = binary.BigEndian.AppendUint16(key, uint16(int16(fromPort)))
	if kind == bipartite.KindConstraint {
		key = binary.BigEndian.AppendUint64(key, math.Float64bits(coefs[0]))
		key = binary.BigEndian.AppendUint64(key, math.Float64bits(coefs[1]))
	}
	for _, c := range children {
		key = binary.BigEndian.AppendUint32(key, uint32(c))
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if id, ok := vs.byKey[string(key)]; ok {
		return id
	}
	nd := viewNode{kind: kind, deg: deg, fromPort: fromPort, coefs: coefs, children: append([]int32(nil), children...)}
	nd.tree = nd.hdrBytes()
	for _, c := range children {
		nd.tree = satAdd(nd.tree, vs.nodes[c].tree)
	}
	id := int32(len(vs.nodes))
	vs.nodes = append(vs.nodes, nd)
	vs.snap.Store(vs.nodes)
	vs.byKey[string(key)] = id
	return id
}

// node returns the interned view; ids are never handed out before the node
// exists, so the snapshot a reader loads always contains id.
func (vs *viewStore) node(id int32) *viewNode {
	arr := vs.snap.Load().([]viewNode)
	return &arr[id]
}

// treeBytes is the wire size of the view sent as a plain tree.
func (vs *viewStore) treeBytes(id int32) int { return vs.node(id).tree }

// dagBytes is the wire size of the view sent as a deduplicated DAG: every
// distinct subtree is encoded once (header plus a 4-byte reference per
// child).
func (vs *viewStore) dagBytes(id int32) int {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if b, ok := vs.dag[id]; ok {
		return b
	}
	seen := map[int32]bool{}
	var walk func(int32) int
	walk = func(id int32) int {
		if seen[id] {
			return 0
		}
		seen[id] = true
		nd := &vs.nodes[id]
		b := nd.hdrBytes() + 4*len(nd.children)
		for _, c := range nd.children {
			b += walk(c)
		}
		return b
	}
	b := walk(id)
	vs.dag[id] = b
	return b
}

// viewGatherStep is the per-round behaviour of every node during the
// view-gathering phase.
func (e *engine) viewGatherStep(n bipartite.Node, round int) {
	deg := e.g.Degree(n)
	kind := e.g.Kind(n)
	var coefs [2]float64
	if kind == bipartite.KindConstraint {
		coefs = e.s.ConsA[e.g.Index(n)]
	}
	children := make([]int32, 0, deg)
	for p := 0; p < deg; p++ {
		children = children[:0]
		if round > 1 {
			for q := 0; q < deg; q++ {
				if q == p {
					continue
				}
				m := e.recv(n, q)
				if !m.has || m.kind != mkView {
					panic("dist: missing view message during gathering")
				}
				children = append(children, m.view)
			}
		}
		id := e.store.intern(kind, deg, p, coefs, children)
		e.send(n, p, message{kind: mkView, view: id})
	}
}

// assembleRootView combines a node's own description with the final
// gathering messages of all its ports; the result is the truncated
// unfolding rooted at n with depth equal to the number of gathering
// rounds.
func (e *engine) assembleRootView(n bipartite.Node, depth int) int32 {
	deg := e.g.Degree(n)
	kind := e.g.Kind(n)
	var coefs [2]float64
	if kind == bipartite.KindConstraint {
		coefs = e.s.ConsA[e.g.Index(n)]
	}
	children := make([]int32, 0, deg)
	if depth > 0 {
		for p := 0; p < deg; p++ {
			m := e.recv(n, p)
			if !m.has || m.kind != mkView {
				panic("dist: missing view message at assembly")
			}
			children = append(children, m.view)
		}
	}
	return e.store.intern(kind, deg, -1, coefs, children)
}

// viewEval evaluates the recursions (5)–(7) on an anonymous view, exactly
// mirroring the iteration orders of the centralised evaluator (core/tu.go):
// constraint minimisations run over the constraint children in port order
// (= the ConsOf row order) and peer summations over the objective child's
// members in port order (= the Objs row order), so every float64 operation
// sequence — and hence every bit — matches the centralised run. Values are
// memoised on (view id, depth): occurrences with equal subviews are merged,
// which keeps the evaluation polynomial in the DAG size.
type viewEval struct {
	vs      *viewStore
	r       int
	rootID  int32
	capRoot float64

	omega       float64
	ok          bool
	plus, minus map[[2]int32]float64
}

func newViewEval(vs *viewStore, rootID int32, r int) *viewEval {
	ve := &viewEval{
		vs: vs, r: r, rootID: rootID,
		plus:  map[[2]int32]float64{},
		minus: map[[2]int32]float64{},
	}
	ve.capRoot = ve.capOf(rootID)
	return ve
}

// capOf evaluates (5): min over the agent occurrence's constraint children
// of 1/a, in port order.
func (ve *viewEval) capOf(id int32) float64 {
	nd := ve.vs.node(id)
	val, j := 0.0, 0
	for _, cid := range nd.children {
		c := ve.vs.node(cid)
		if c.kind != bipartite.KindConstraint {
			continue
		}
		a := c.coefs[c.fromPort]
		if j == 0 || 1/a < val {
			val = 1 / a
		}
		j++
	}
	if j == 0 {
		panic("dist: view truncated before the constraints of an agent occurrence")
	}
	return val
}

// fplus evaluates f+ per (5)/(7) at an agent occurrence reached through its
// objective (or at the root), recording condition (8).
func (ve *viewEval) fplus(id int32, d int) float64 {
	key := [2]int32{id, int32(d)}
	if v, ok := ve.plus[key]; ok {
		return v
	}
	nd := ve.vs.node(id)
	var val float64
	if d == 0 {
		val = ve.capOf(id)
	} else {
		j := 0
		for _, cid := range nd.children {
			c := ve.vs.node(cid)
			if c.kind != bipartite.KindConstraint {
				continue
			}
			if len(c.children) != 1 {
				panic("dist: view truncated before a constraint partner")
			}
			av := c.coefs[c.fromPort]
			aw := c.coefs[1-c.fromPort]
			cand := core.GPlusCandidate(av, aw, ve.fminus(c.children[0], d-1))
			if j == 0 || cand < val {
				val = cand
			}
			j++
		}
		if j == 0 {
			panic("dist: view truncated before the constraints of an agent occurrence")
		}
	}
	if val < 0 {
		ve.ok = false // condition (8) violated at this ω
	}
	ve.plus[key] = val
	return val
}

// fminus evaluates f− per (6): the hinge of ω minus the peer sum, the
// peers being the objective child's members in port order.
func (ve *viewEval) fminus(id int32, d int) float64 {
	key := [2]int32{id, int32(d)}
	if v, ok := ve.minus[key]; ok {
		return v
	}
	sum := 0.0
	for _, pid := range ve.peersOf(id) {
		sum += ve.fplus(pid, d)
	}
	val := core.HingePos(ve.omega - sum)
	ve.minus[key] = val
	return val
}

// peersOf returns the members of the occurrence's objective child in port
// order; the branch back to the occurrence itself is absent by
// construction (the unfolding never backtracks), so these are exactly
// N(v) = Vk(v) \ {v}.
func (ve *viewEval) peersOf(id int32) []int32 {
	nd := ve.vs.node(id)
	for _, cid := range nd.children {
		c := ve.vs.node(cid)
		if c.kind == bipartite.KindObjective {
			return c.children
		}
	}
	panic("dist: view truncated before the objective of an agent occurrence")
}

// feasible reports conditions (8) and (9) for the root at ω, exactly as
// the centralised evaluator does.
func (ve *viewEval) feasible(omega float64) bool {
	ve.omega = omega
	ve.ok = true
	clear(ve.plus)
	clear(ve.minus)
	root := ve.fminus(ve.rootID, ve.r)
	return ve.ok && root <= ve.capRoot
}

// upperBound reconstructs the binary-search start Σ_{w∈Vk(u)} cap_w in the
// objective's port order: the root occupies its own port position (the
// objective child's fromPort), the remaining positions are the child
// views.
func (ve *viewEval) upperBound() float64 {
	nd := ve.vs.node(ve.rootID)
	for _, cid := range nd.children {
		o := ve.vs.node(cid)
		if o.kind != bipartite.KindObjective {
			continue
		}
		hi, idx := 0.0, 0
		for p := 0; p < o.deg; p++ {
			if p == o.fromPort {
				hi += ve.capRoot
				continue
			}
			if idx >= len(o.children) {
				panic("dist: view truncated before the peers of the root")
			}
			hi += ve.capOf(o.children[idx])
			idx++
		}
		return hi
	}
	panic("dist: root view has no objective child")
}

// computeT runs the binary search of §5.2 on the assembled view.
func (ve *viewEval) computeT(binIters int) float64 {
	return core.BinarySearch(ve.upperBound(), binIters, ve.feasible)
}

// GatherView runs the anonymous view-gathering protocol alone for depth
// rounds on the communication graph of s and returns the canonical
// encoding of the view assembled at root: per node, kind, degree, the port
// toward the parent (−1 at the root), the two coefficients for constraint
// nodes, followed by the encodings of the children in increasing port
// order. This is byte-for-byte the encoding of unfold.Truncated(g, root,
// depth), which the cross-check tests assert.
func GatherView(s *structured.Instance, root bipartite.Node, depth int) ([]byte, error) {
	g := bipartite.FromInstance(s.ToMMLP())
	if int(root) < 0 || int(root) >= g.NumNodes() {
		return nil, fmt.Errorf("dist: root %d outside the communication graph", root)
	}
	store := newViewStore()
	e := newEngine(g, store)
	e.s = s
	steps := make([]func(int), g.NumNodes())
	for v := range steps {
		n := bipartite.Node(v)
		steps[v] = func(round int) { e.viewGatherStep(n, round) }
	}
	e.run(context.Background(), steps, depth)
	return store.encodeCanonical(e.assembleRootView(root, depth)), nil
}

// encodeCanonical serialises a view tree in the canonical port-order
// format documented on GatherView.
func (vs *viewStore) encodeCanonical(id int32) []byte {
	var out []byte
	var walk func(int32)
	walk = func(id int32) {
		nd := vs.node(id)
		out = append(out, byte(nd.kind))
		out = binary.BigEndian.AppendUint16(out, uint16(nd.deg))
		out = binary.BigEndian.AppendUint16(out, uint16(int16(nd.fromPort)))
		if nd.kind == bipartite.KindConstraint {
			out = binary.BigEndian.AppendUint64(out, math.Float64bits(nd.coefs[0]))
			out = binary.BigEndian.AppendUint64(out, math.Float64bits(nd.coefs[1]))
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(id)
	return out
}
