package graph

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestBFSPath(t *testing.T) {
	g := pathGraph(6)
	dist := g.BFS(0)
	for v, d := range dist {
		if d != v {
			t.Errorf("dist[%d] = %d, want %d", v, d, v)
		}
	}
}

func TestBFSLimited(t *testing.T) {
	g := pathGraph(6)
	dist := g.BFSLimited(0, 2)
	want := []int{0, 1, 2, Unreachable, Unreachable, Unreachable}
	for v := range want {
		if dist[v] != want[v] {
			t.Errorf("limited dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}

func TestBFSOutOfRangeSource(t *testing.T) {
	g := pathGraph(3)
	dist := g.BFS(-1)
	for _, d := range dist {
		if d != Unreachable {
			t.Fatal("out-of-range source should reach nothing")
		}
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := pathGraph(7)
	ecc, err := g.Eccentricity(3)
	if err != nil || ecc != 3 {
		t.Errorf("ecc(3) = %d, %v; want 3", ecc, err)
	}
	d, err := g.Diameter()
	if err != nil || d != 6 {
		t.Errorf("diameter = %d, %v; want 6", d, err)
	}
	da, err := g.DiameterApprox()
	if err != nil || da != 6 {
		t.Errorf("approx diameter = %d, %v; want 6 (exact on paths)", da, err)
	}
}

func TestConnectivity(t *testing.T) {
	g := pathGraph(4)
	if !g.IsConnected() {
		t.Error("path should be connected")
	}
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	h := b.Build()
	if h.IsConnected() {
		t.Error("two components reported connected")
	}
	if _, err := h.Diameter(); err == nil {
		t.Error("diameter of disconnected graph should error")
	}
	if _, err := h.Eccentricity(0); err == nil {
		t.Error("eccentricity in disconnected graph should error")
	}
	empty := NewBuilder(0).Build()
	if !empty.IsConnected() {
		t.Error("empty graph should be connected by convention")
	}
}

func TestBipartite(t *testing.T) {
	cases := []struct {
		g    *Graph
		want bool
	}{
		{pathGraph(5), true},
		{triangle(), false},
		{cycleGraph(6), true},
		{cycleGraph(7), false},
	}
	for i, c := range cases {
		if got := c.g.IsBipartite(); got != c.want {
			t.Errorf("case %d: IsBipartite = %v, want %v", i, got, c.want)
		}
	}
}

func cycleGraph(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

func TestComponentOf(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	comp := g.ComponentOf(1)
	if len(comp) != 3 || comp[0] != 0 || comp[2] != 2 {
		t.Errorf("component %v", comp)
	}
}

// TestBFSTriangleInequality property-checks BFS distances on random
// connected graphs: |d(s,u) − d(s,v)| ≤ 1 for every edge {u,v}.
func TestBFSTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		b := NewBuilder(n)
		for i := 1; i < n; i++ { // random spanning tree keeps it connected
			b.AddEdge(i, rng.Intn(i))
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		dist := g.BFS(rng.Intn(n))
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				diff := dist[u] - dist[v]
				if diff < -1 || diff > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDiameterApproxBounds: the double sweep is a lower bound on the true
// diameter and never exceeds it.
func TestDiameterApproxBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		b := NewBuilder(n)
		for i := 1; i < n; i++ {
			b.AddEdge(i, rng.Intn(i))
		}
		for i := 0; i < n/2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		exact, err1 := g.Diameter()
		approx, err2 := g.DiameterApprox()
		if err1 != nil || err2 != nil {
			return false
		}
		return approx <= exact && approx*2 >= exact && approx >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestGraphFactsComputedOnce: a full graph's connectivity, bipartiteness
// and regularity come from one pass on first use, are safe under
// concurrent first use, and cost no allocation afterwards.
func TestGraphFactsComputedOnce(t *testing.T) {
	// A 4-path plus a triangle: disconnected, and the odd cycle sits in
	// the second component, which the single pass must still visit.
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	b.AddEdge(6, 4)
	split := b.Build()
	// The odd cycle first: the pass must still find the second component.
	b = NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 4)
	oddFirst := b.Build()
	cases := []struct {
		name                 string
		g                    *Graph
		connected, bipartite bool
		deg                  int
		regular              bool
	}{
		{"path+triangle", split, false, false, 1, false},
		{"triangle+edge", oddFirst, false, false, 1, false},
		{"cycle6", cycleGraph(6), true, true, 2, true},
		{"cycle7", cycleGraph(7), true, false, 2, true},
		{"path5", pathGraph(5), true, true, 1, false},
	}
	for _, c := range cases {
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.g.IsConnected()
				c.g.IsBipartite()
				c.g.Regular()
			}()
		}
		wg.Wait()
		d, ok := c.g.Regular()
		if c.g.IsConnected() != c.connected || c.g.IsBipartite() != c.bipartite || d != c.deg || ok != c.regular {
			t.Errorf("%s: connected/bipartite/regular = %t/%t/(%d,%t), want %t/%t/(%d,%t)", c.name,
				c.g.IsConnected(), c.g.IsBipartite(), d, ok, c.connected, c.bipartite, c.deg, c.regular)
		}
		for name, f := range map[string]func(){
			"IsConnected": func() { c.g.IsConnected() },
			"IsBipartite": func() { c.g.IsBipartite() },
			"Regular":     func() { c.g.Regular() },
		} {
			if a := testing.AllocsPerRun(10, f); a != 0 {
				t.Errorf("%s: %s allocates %.0f times after the first call", c.name, name, a)
			}
		}
	}
}
