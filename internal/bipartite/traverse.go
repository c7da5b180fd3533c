package bipartite

// Ball returns every node within the given number of edges of from
// (inclusive of from itself), in BFS order, together with a parallel slice
// of distances. Radius 0 yields only from.
func (g *Graph) Ball(from Node, radius int) (nodes []Node, dist []int) {
	seen := make(map[Node]int, 16)
	seen[from] = 0
	nodes = append(nodes, from)
	dist = append(dist, 0)
	for head := 0; head < len(nodes); head++ {
		n, d := nodes[head], dist[head]
		if d == radius {
			continue
		}
		for _, m := range g.adj[n] {
			if _, ok := seen[m]; ok {
				continue
			}
			seen[m] = d + 1
			nodes = append(nodes, m)
			dist = append(dist, d+1)
		}
	}
	return nodes, dist
}

// AgentsWithin returns the agents whose graph distance from agent v is at
// most radius, in BFS order (v itself first). This is the set the smoothing
// step of §5.3 takes a minimum over.
func (g *Graph) AgentsWithin(v int, radius int) []int {
	nodes, _ := g.Ball(g.AgentNode(v), radius)
	var agents []int
	for _, n := range nodes {
		if g.Kind(n) == KindAgent {
			agents = append(agents, g.Index(n))
		}
	}
	return agents
}

// Dist returns the graph distance in edges between two nodes, or -1 when
// they lie in different connected components.
func (g *Graph) Dist(a, b Node) int {
	if a == b {
		return 0
	}
	seen := map[Node]int{a: 0}
	queue := []Node{a}
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		for _, m := range g.adj[n] {
			if _, ok := seen[m]; ok {
				continue
			}
			seen[m] = seen[n] + 1
			if m == b {
				return seen[m]
			}
			queue = append(queue, m)
		}
	}
	return -1
}

// Components returns the connected components of the graph as slices of
// node ids, each in BFS order, ordered by their smallest node id.
func (g *Graph) Components() [][]Node {
	visited := make([]bool, g.NumNodes())
	var comps [][]Node
	for start := 0; start < g.NumNodes(); start++ {
		if visited[start] {
			continue
		}
		comp := []Node{Node(start)}
		visited[start] = true
		for head := 0; head < len(comp); head++ {
			for _, m := range g.adj[comp[head]] {
				if !visited[m] {
					visited[m] = true
					comp = append(comp, m)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// Connected reports whether the graph has at most one connected component.
func (g *Graph) Connected() bool { return len(g.Components()) <= 1 }

// Girth returns the length of a shortest cycle, or -1 for a forest. The
// graph is bipartite, so any girth returned is even and at least 4.
func (g *Graph) Girth() int {
	best := -1
	// BFS from every node; a cross or back edge at depths d1, d2 closes a
	// cycle of length d1+d2+1. For bipartite graphs cross edges at equal
	// depth cannot occur, but the general formula keeps the routine honest.
	for start := 0; start < g.NumNodes(); start++ {
		dist := make(map[Node]int, 16)
		parent := make(map[Node]Node, 16)
		dist[Node(start)] = 0
		parent[Node(start)] = -1
		queue := []Node{Node(start)}
		for head := 0; head < len(queue); head++ {
			n := queue[head]
			if best != -1 && dist[n]*2 >= best {
				break
			}
			for _, m := range g.adj[n] {
				if m == parent[n] {
					continue
				}
				if dm, ok := dist[m]; ok {
					if c := dist[n] + dm + 1; best == -1 || c < best {
						best = c
					}
					continue
				}
				dist[m] = dist[n] + 1
				parent[m] = n
				queue = append(queue, m)
			}
		}
	}
	return best
}
