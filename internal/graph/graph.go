package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Graph is an immutable simple undirected graph in CSR form.
// The zero value is the empty graph.
//
// A graph normally materializes every adjacency row. A shard built by
// BuildShard materializes only its owned rows plus halo rows and carries a
// Meta with the whole-graph facts (edge count, degree bounds, connectivity,
// bipartiteness); the global accessors — M, MinDegree, MaxDegree, Regular,
// IsConnected, IsBipartite — answer from the Meta so shard-local code sees
// the full graph's invariants without holding its edges. A full graph
// computes the same facts in one pass on the first such call and keeps
// them, so later calls cost nothing.
type Graph struct {
	name    string
	offsets []int32 // len n+1; neighbors of u are edges[offsets[u]:offsets[u+1]]
	edges   []int32 // len 2m, sorted within each row
	meta    *Meta   // non-nil only for sharded builds; whole-graph facts

	// A full graph's computed Meta (see whole).
	factsOnce sync.Once
	facts     Meta
}

// ErrNotConnected is returned by operations that require a connected graph.
var ErrNotConnected = errors.New("graph: not connected")

// N returns the number of vertices.
func (g *Graph) N() int {
	if g.offsets == nil {
		return 0
	}
	return len(g.offsets) - 1
}

// M returns the number of undirected edges of the whole graph. For a shard
// this is the full graph's edge count (from the Meta), not the number of
// materialized rows' edges.
func (g *Graph) M() int {
	if g.meta != nil {
		return g.meta.M
	}
	return len(g.edges) / 2
}

// Name returns the human-readable label attached at construction time
// (for example "barbell(beta=8,k=128)"). It may be empty.
func (g *Graph) Name() string { return g.name }

// Degree returns the degree of vertex u.
func (g *Graph) Degree(u int) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns the neighbors of u as a shared, sorted, read-only slice.
// Callers must not modify it.
func (g *Graph) Neighbors(u int) []int32 {
	return g.edges[g.offsets[u]:g.offsets[u+1]]
}

// CSR exposes the raw compressed-sparse-row arrays: offsets has length n+1
// and the neighbors of u are edges[offsets[u]:offsets[u+1]], sorted. Both
// slices are the graph's own storage and must be treated as read-only; the
// walk kernel uses them for flat, bounds-check-friendly row access.
func (g *Graph) CSR() (offsets, edges []int32) {
	return g.offsets, g.edges
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	row := g.Neighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	return i < len(row) && row[i] == int32(v)
}

// MinDegree returns the minimum degree, or 0 for the empty graph.
func (g *Graph) MinDegree() int { return g.whole().MinDeg }

// MaxDegree returns the maximum degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int { return g.whole().MaxDeg }

// Regular reports whether every vertex has the same degree, and that degree
// (the minimum degree when it does not).
func (g *Graph) Regular() (d int, ok bool) {
	m := g.whole()
	if m.RegularDeg >= 0 {
		return m.RegularDeg, true
	}
	return m.MinDeg, false
}

// whole returns the whole-graph facts: a shard's Meta, or for a full graph
// a Meta computed once, on first use, and kept (the graph is immutable).
func (g *Graph) whole() *Meta {
	if g.meta != nil {
		return g.meta
	}
	g.factsOnce.Do(func() { g.facts = g.computeMeta() })
	return &g.facts
}

// computeMeta derives a full graph's Meta. One 2-coloring BFS per
// component answers both traversal facts: the graph is connected when the
// first BFS reaches every vertex, and bipartite when no edge joins two
// vertices of the same color.
func (g *Graph) computeMeta() Meta {
	n := g.N()
	m := Meta{M: g.M(), RegularDeg: -1, Connected: true, Bipartite: true}
	if n == 0 {
		m.RegularDeg = 0
		return m
	}
	m.MinDeg, m.MaxDeg = g.Degree(0), g.Degree(0)
	for u := 1; u < n; u++ {
		m.MinDeg = min(m.MinDeg, g.Degree(u))
		m.MaxDeg = max(m.MaxDeg, g.Degree(u))
	}
	if m.MinDeg == m.MaxDeg {
		m.RegularDeg = m.MinDeg
	}
	color := make([]int8, n) // 0 = unvisited, 1 / 2 = sides
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		if color[s] != 0 {
			continue
		}
		m.Connected = s == 0
		color[s] = 1
		queue = append(queue[:0], int32(s))
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			for _, v := range g.Neighbors(int(u)) {
				if color[v] == 0 {
					color[v] = 3 - color[u]
					queue = append(queue, v)
				} else if color[v] == color[u] {
					m.Bipartite = false
				}
			}
		}
	}
	return m
}

// Volume returns the sum of degrees of the given vertex set, µ(S) in the
// paper. Vertices may appear at most once; duplicates are the caller's bug.
func (g *Graph) Volume(set []int) int {
	vol := 0
	for _, u := range set {
		vol += g.Degree(u)
	}
	return vol
}

// CutSize returns |E(S, V\S)|, the number of edges crossing the set boundary.
// members must have length n and mark membership of every vertex.
func (g *Graph) CutSize(members []bool) int {
	if len(members) != g.N() {
		panic(fmt.Sprintf("graph: CutSize membership length %d, want %d", len(members), g.N()))
	}
	cut := 0
	for u := 0; u < g.N(); u++ {
		if !members[u] {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if !members[v] {
				cut++
			}
		}
	}
	return cut
}

// Conductance returns φ(S) = |E(S, V\S)| / min{µ(S), µ(V\S)} for the set
// marked by members. It returns an error when either side has zero volume
// (conductance is undefined there).
func (g *Graph) Conductance(members []bool) (float64, error) {
	if len(members) != g.N() {
		return 0, fmt.Errorf("graph: Conductance membership length %d, want %d", len(members), g.N())
	}
	volS := 0
	for u := 0; u < g.N(); u++ {
		if members[u] {
			volS += g.Degree(u)
		}
	}
	volC := 2*g.M() - volS
	if volS == 0 || volC == 0 {
		return 0, errors.New("graph: conductance undefined for empty side")
	}
	cut := g.CutSize(members)
	den := volS
	if volC < den {
		den = volC
	}
	return float64(cut) / float64(den), nil
}

// Members converts a vertex list to a membership mask of length n.
func (g *Graph) Members(set []int) []bool {
	m := make([]bool, g.N())
	for _, u := range set {
		m[u] = true
	}
	return m
}

// Builder accumulates edges and produces a Graph. Self-loops are rejected;
// duplicate edges are deduplicated at Build time.
type Builder struct {
	n    int
	name string
	us   []int32
	vs   []int32
}

// NewBuilder creates a builder for a graph with n vertices labelled 0..n-1.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// SetName attaches a label to the graph under construction.
func (b *Builder) SetName(name string) { b.name = name }

// AddEdge records the undirected edge {u, v}. It panics on out-of-range
// vertices or self-loops: those are programming errors in generators, not
// runtime conditions.
func (b *Builder) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
}

// HasEdgeSlow reports whether the edge was already added (either direction).
// It is linear in the number of edges and intended for generator retry loops
// on small graphs; generators on large graphs should track their own sets.
func (b *Builder) HasEdgeSlow(u, v int) bool {
	for i := range b.us {
		if (b.us[i] == int32(u) && b.vs[i] == int32(v)) || (b.us[i] == int32(v) && b.vs[i] == int32(u)) {
			return true
		}
	}
	return false
}

// Build finalizes the graph, sorting adjacency rows and removing duplicate
// edges. The builder can be reused afterwards only by adding more edges.
func (b *Builder) Build() *Graph {
	n := b.n
	deg := make([]int32, n+1)
	for i := range b.us {
		deg[b.us[i]+1]++
		deg[b.vs[i]+1]++
	}
	for u := 0; u < n; u++ {
		deg[u+1] += deg[u]
	}
	edges := make([]int32, len(b.us)*2)
	cursor := make([]int32, n)
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		edges[deg[u]+cursor[u]] = v
		cursor[u]++
		edges[deg[v]+cursor[v]] = u
		cursor[v]++
	}
	// Sort each row; rebuild performs deduplication. slices.Sort avoids the
	// per-row closure allocation sort.Slice would pay.
	for u := 0; u < n; u++ {
		slices.Sort(edges[deg[u]:deg[u+1]])
	}
	return rebuild(n, b.name, edges, deg)
}

// rebuild produces the final CSR from per-row sorted (possibly duplicated)
// adjacency data.
func rebuild(n int, name string, edges []int32, rowOff []int32) *Graph {
	offsets := make([]int32, n+1)
	total := int32(0)
	for u := 0; u < n; u++ {
		row := edges[rowOff[u]:rowOff[u+1]]
		var prev int32 = -1
		cnt := int32(0)
		for _, v := range row {
			if v != prev {
				cnt++
				prev = v
			}
		}
		offsets[u+1] = offsets[u] + cnt
		total += cnt
	}
	final := make([]int32, total)
	for u := 0; u < n; u++ {
		row := edges[rowOff[u]:rowOff[u+1]]
		w := offsets[u]
		var prev int32 = -1
		for _, v := range row {
			if v != prev {
				final[w] = v
				w++
				prev = v
			}
		}
	}
	return &Graph{name: name, offsets: offsets, edges: final}
}

// FromAdjacency builds a graph directly from an adjacency list. Used by
// tests and by generators that construct adjacency explicitly. Rows are
// copied; self-loops panic; duplicates are removed.
func FromAdjacency(name string, adj [][]int) *Graph {
	b := NewBuilder(len(adj))
	b.SetName(name)
	for u, row := range adj {
		for _, v := range row {
			if v > u { // add each undirected edge once
				b.AddEdge(u, v)
			} else if v == u {
				panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
			}
		}
	}
	return b.Build()
}

// Clone returns a deep copy with a new name.
func (g *Graph) Clone(name string) *Graph {
	off := make([]int32, len(g.offsets))
	copy(off, g.offsets)
	ed := make([]int32, len(g.edges))
	copy(ed, g.edges)
	var meta *Meta
	if g.meta != nil {
		m := *g.meta
		meta = &m
	}
	return &Graph{name: name, offsets: off, edges: ed, meta: meta}
}

// DegreeHistogram returns a map from degree to the number of vertices with
// that degree. Useful in tests of generators.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for u := 0; u < g.N(); u++ {
		h[g.Degree(u)]++
	}
	return h
}
