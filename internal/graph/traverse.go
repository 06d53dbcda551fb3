package graph

// Unreachable is the distance value reported by BFS for vertices that are
// not reachable from the source (or beyond the depth limit).
const Unreachable = -1

// BFS returns the vector of hop distances from src; unreachable vertices get
// Unreachable.
func (g *Graph) BFS(src int) []int {
	return g.BFSLimited(src, g.N())
}

// BFSLimited runs breadth-first search from src but does not explore beyond
// the given depth. Vertices farther than depth hops get Unreachable.
func (g *Graph) BFSLimited(src, depth int) []int {
	n := g.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	if src < 0 || src >= n {
		return dist
	}
	dist[src] = 0
	frontier := []int32{int32(src)}
	var next []int32
	for d := 0; d < depth && len(frontier) > 0; d++ {
		next = next[:0]
		for _, u := range frontier {
			for _, v := range g.Neighbors(int(u)) {
				if dist[v] == Unreachable {
					dist[v] = d + 1
					next = append(next, v)
				}
			}
		}
		frontier, next = next, frontier
	}
	return dist
}

// Eccentricity returns the maximum distance from u to any vertex. It returns
// ErrNotConnected if some vertex is unreachable.
func (g *Graph) Eccentricity(u int) (int, error) {
	dist := g.BFS(u)
	ecc := 0
	for _, d := range dist {
		if d == Unreachable {
			return 0, ErrNotConnected
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, nil
}

// IsConnected reports whether the graph is connected. The empty graph is
// considered connected. A shard answers for the whole graph from its Meta.
func (g *Graph) IsConnected() bool { return g.whole().Connected }

// IsBipartite reports whether the graph is 2-colorable. Mixing of the simple
// (non-lazy) random walk is undefined on bipartite graphs (paper footnote 5);
// callers use this to decide whether laziness is required. A shard answers
// for the whole graph from its Meta.
func (g *Graph) IsBipartite() bool { return g.whole().Bipartite }

// Diameter computes the exact diameter by running BFS from every vertex.
// O(n·m); intended for the small-to-medium graphs used in tests and
// experiments. Returns ErrNotConnected for disconnected graphs.
func (g *Graph) Diameter() (int, error) {
	n := g.N()
	if n == 0 {
		return 0, nil
	}
	diam := 0
	for u := 0; u < n; u++ {
		ecc, err := g.Eccentricity(u)
		if err != nil {
			return 0, err
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam, nil
}

// DiameterApprox lower-bounds the diameter with a double BFS sweep
// (exact on trees, within a factor 2 in general, and usually exact on the
// structured families used here). O(m). Returns ErrNotConnected for
// disconnected graphs.
func (g *Graph) DiameterApprox() (int, error) {
	n := g.N()
	if n == 0 {
		return 0, nil
	}
	dist := g.BFS(0)
	far, fd := 0, 0
	for u, d := range dist {
		if d == Unreachable {
			return 0, ErrNotConnected
		}
		if d > fd {
			far, fd = u, d
		}
	}
	ecc, err := g.Eccentricity(far)
	if err != nil {
		return 0, err
	}
	return ecc, nil
}

// ComponentOf returns the vertices in the connected component containing u,
// in increasing vertex order.
func (g *Graph) ComponentOf(u int) []int {
	dist := g.BFS(u)
	var comp []int
	for v, d := range dist {
		if d != Unreachable {
			comp = append(comp, v)
		}
	}
	return comp
}
