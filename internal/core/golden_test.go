package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/graph"
)

// goldenRow is the part of a Result the engine's scheduling must never
// change: the answer, the phase trace (as a count and an FNV-64 digest of
// its printed form) and the simulation's round, message and bit counts.
// ActiveSteps, SleepSkips and Wakeups are deliberately absent: they measure
// how often the engine called Step, which sleeping responders reduce.
type goldenRow struct {
	Tau, R      int
	Sum         float64
	Phases      int
	PhaseDigest uint64
	Rounds      int
	Messages    int64
	Bits        int64
	MaxEdgeBits int
}

func goldenOf(res *Result) goldenRow {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", res.Phases)
	return goldenRow{
		Tau: res.Tau, R: res.R, Sum: res.Sum,
		Phases: len(res.Phases), PhaseDigest: h.Sum64(),
		Rounds: res.Stats.Rounds, Messages: res.Stats.Messages,
		Bits: res.Stats.Bits, MaxEdgeBits: res.Stats.MaxEdgeBits,
	}
}

// goldenGraphs builds the four pinned topologies: the ring of cliques (the
// local-mixing showcase), the Figure 1 barbell, a torus (bipartite, so the
// walk is lazy) and a random 4-regular expander.
func goldenGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := make(map[string]*graph.Graph)
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		gs[name] = g
	}
	g, err := gen.RingOfCliques(4, 8)
	add("ringcliques4x8", g, err)
	g, err = gen.Barbell(8, 16)
	add("barbell8x16", g, err)
	g, err = gen.Torus(8, 8)
	add("torus8", g, err)
	g, err = gen.RandomRegular(64, 4, rand.New(rand.NewSource(5)))
	add("expander64", g, err)
	return gs
}

// goldenCase is one pinned run: a graph, an algorithm and its options.
type goldenCase struct {
	name  string
	graph string
	run   func(g *graph.Graph) (*Result, error)
}

func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, gp := range []struct {
		name      string
		beta, eps float64
	}{
		// β picks the witness scale: one clique of the ring, one of the
		// barbell's eight. ε is chosen per graph so τ exceeds 1 and the
		// exact variant finishes in well under a second.
		{"ringcliques4x8", 4, 0.05},
		{"barbell8x16", 8, 0.02},
		{"torus8", 4, 0.1},
		{"expander64", 4, 0.08},
	} {
		gname, beta, eps := gp.name, gp.beta, gp.eps
		lazy := gname == "torus8"
		for _, seed := range []int64{1, 2} {
			opts := []Option{WithLazyIf(lazy), WithIrregular(), WithSeed(seed)}
			cs = append(cs,
				goldenCase{name: fmt.Sprintf("%s/approx/seed%d", gname, seed), graph: gname,
					run: func(g *graph.Graph) (*Result, error) { return ApproxLocalMixingTime(g, 0, beta, eps, opts...) }},
				goldenCase{name: fmt.Sprintf("%s/exact/seed%d", gname, seed), graph: gname,
					run: func(g *graph.Graph) (*Result, error) { return ExactLocalMixingTime(g, 0, beta, eps, opts...) }},
			)
			if gname != "barbell8x16" {
				// The barbell's global mixing time is ~10^4 rounds of
				// flooding per probe; the other three cover MixTime.
				cs = append(cs, goldenCase{name: fmt.Sprintf("%s/mixing/seed%d", gname, seed), graph: gname,
					run: func(g *graph.Graph) (*Result, error) { return MixingTime(g, 0, eps, opts...) }})
			}
		}
	}
	cs = append(cs,
		goldenCase{name: "ringcliques4x8/approx/churn", graph: "ringcliques4x8",
			run: func(g *graph.Graph) (*Result, error) {
				churn, err := dyngraph.NewEdgeMarkov(g, 7, 0.2, 0.5)
				if err != nil {
					return nil, err
				}
				return DynamicLocalMixingTime(g, 0, 4, dynEps, churn, WithSeed(3), WithLazy(), WithIrregular())
			}},
		goldenCase{name: "ringcliques4x8/approx/tiebreak", graph: "ringcliques4x8",
			run: func(g *graph.Graph) (*Result, error) {
				return ApproxLocalMixingTime(g, 0, 4, 0.05, WithRandomTieBreak(6), WithSeed(9))
			}},
	)
	return cs
}

// goldenWant was captured before idle responders slept; the sleep rule
// must reproduce it exactly.
var goldenWant = map[string]goldenRow{
	"ringcliques4x8/approx/seed1":    {Tau: 2, R: 8, Sum: 0.15816326159983873, Phases: 2, PhaseDigest: 0xc00c41d79b8bd01c, Rounds: 1364, Messages: 9741, Bits: 477640, MaxEdgeBits: 57},
	"ringcliques4x8/exact/seed1":     {Tau: 2, R: 8, Sum: 0.15816326159983873, Phases: 2, PhaseDigest: 0xc00c41d79b8bd01c, Rounds: 1363, Messages: 9734, Bits: 477332, MaxEdgeBits: 57},
	"ringcliques4x8/mixing/seed1":    {Tau: 107, R: 0, Sum: 0.04964460805058479, Phases: 14, PhaseDigest: 0x975c102f249321b2, Rounds: 1188, Messages: 191884, Bits: 8415531, MaxEdgeBits: 57},
	"ringcliques4x8/approx/seed2":    {Tau: 2, R: 8, Sum: 0.15816326159983873, Phases: 2, PhaseDigest: 0xc00c41d79b8bd01c, Rounds: 1364, Messages: 9741, Bits: 477640, MaxEdgeBits: 57},
	"ringcliques4x8/exact/seed2":     {Tau: 2, R: 8, Sum: 0.15816326159983873, Phases: 2, PhaseDigest: 0xc00c41d79b8bd01c, Rounds: 1363, Messages: 9734, Bits: 477332, MaxEdgeBits: 57},
	"ringcliques4x8/mixing/seed2":    {Tau: 107, R: 0, Sum: 0.04964460805058479, Phases: 14, PhaseDigest: 0x975c102f249321b2, Rounds: 1188, Messages: 191884, Bits: 8415531, MaxEdgeBits: 57},
	"barbell8x16/approx/seed1":       {Tau: 2, R: 16, Sum: 0.011944444441724045, Phases: 2, PhaseDigest: 0xc7a96c10121c5c36, Rounds: 6527, Messages: 98685, Bits: 6421349, MaxEdgeBits: 75},
	"barbell8x16/exact/seed1":        {Tau: 2, R: 16, Sum: 0.011944444441724045, Phases: 2, PhaseDigest: 0xc7a96c10121c5c36, Rounds: 6526, Messages: 98670, Bits: 6420479, MaxEdgeBits: 75},
	"barbell8x16/approx/seed2":       {Tau: 2, R: 16, Sum: 0.011944444441724045, Phases: 2, PhaseDigest: 0xc7a96c10121c5c36, Rounds: 6527, Messages: 98685, Bits: 6421349, MaxEdgeBits: 75},
	"barbell8x16/exact/seed2":        {Tau: 2, R: 16, Sum: 0.011944444441724045, Phases: 2, PhaseDigest: 0xc7a96c10121c5c36, Rounds: 6526, Messages: 98670, Bits: 6420479, MaxEdgeBits: 75},
	"torus8/approx/seed1":            {Tau: 8, R: 16, Sum: 0.32871103286743164, Phases: 4, PhaseDigest: 0x98a602ce2b9e7976, Rounds: 8476, Messages: 66554, Bits: 3828889, MaxEdgeBits: 66},
	"torus8/exact/seed1":             {Tau: 6, R: 16, Sum: 0.398956298828125, Phases: 6, PhaseDigest: 0x87ca928dfdd75df1, Rounds: 17177, Messages: 147311, Bits: 8512322, MaxEdgeBits: 66},
	"torus8/mixing/seed1":            {Tau: 37, R: 0, Sum: 0.0959835076937452, Phases: 12, PhaseDigest: 0xd893a7d2afa429, Rounds: 664, Messages: 75432, Bits: 3798526, MaxEdgeBits: 66},
	"torus8/approx/seed2":            {Tau: 8, R: 16, Sum: 0.32871103286743164, Phases: 4, PhaseDigest: 0x98a602ce2b9e7976, Rounds: 8476, Messages: 66554, Bits: 3828889, MaxEdgeBits: 66},
	"torus8/exact/seed2":             {Tau: 6, R: 16, Sum: 0.398956298828125, Phases: 6, PhaseDigest: 0x87ca928dfdd75df1, Rounds: 17177, Messages: 147311, Bits: 8512322, MaxEdgeBits: 66},
	"torus8/mixing/seed2":            {Tau: 37, R: 0, Sum: 0.0959835076937452, Phases: 12, PhaseDigest: 0xd893a7d2afa429, Rounds: 664, Messages: 75432, Bits: 3798526, MaxEdgeBits: 66},
	"expander64/approx/seed1":        {Tau: 8, R: 41, Sum: 0.31523095091688447, Phases: 4, PhaseDigest: 0xde79c555dcc19112, Rounds: 13446, Messages: 148966, Bits: 8607235, MaxEdgeBits: 66},
	"expander64/exact/seed1":         {Tau: 7, R: 47, Sum: 0.3194722924672533, Phases: 7, PhaseDigest: 0xeb12d02889502256, Rounds: 30575, Messages: 358084, Bits: 20738745, MaxEdgeBits: 66},
	"expander64/mixing/seed1":        {Tau: 15, R: 0, Sum: 0.0762791633605957, Phases: 8, PhaseDigest: 0x9dd5fd845c8f3a78, Rounds: 225, Messages: 14560, Bits: 705898, MaxEdgeBits: 66},
	"expander64/approx/seed2":        {Tau: 8, R: 41, Sum: 0.31523095091688447, Phases: 4, PhaseDigest: 0xde79c555dcc19112, Rounds: 13446, Messages: 148966, Bits: 8607235, MaxEdgeBits: 66},
	"expander64/exact/seed2":         {Tau: 7, R: 47, Sum: 0.3194722924672533, Phases: 7, PhaseDigest: 0xeb12d02889502256, Rounds: 30575, Messages: 358084, Bits: 20738745, MaxEdgeBits: 66},
	"expander64/mixing/seed2":        {Tau: 15, R: 0, Sum: 0.0762791633605957, Phases: 8, PhaseDigest: 0x9dd5fd845c8f3a78, Rounds: 225, Messages: 14560, Bits: 705898, MaxEdgeBits: 66},
	"ringcliques4x8/approx/churn":    {Tau: 1, R: 8, Sum: 0.5000000037252903, Phases: 1, PhaseDigest: 0x8ac39e732b73c256, Rounds: 74, Messages: 648, Bits: 25587, MaxEdgeBits: 57},
	"ringcliques4x8/approx/tiebreak": {Tau: 2, R: 8, Sum: 0.15816326439380646, Phases: 2, PhaseDigest: 0x5026eb3e788028cf, Rounds: 1632, Messages: 11617, Bits: 639284, MaxEdgeBits: 63},
}

// TestGoldenResults pins every result field and simulation count of
// Algorithm 2 (approximate and exact) and the [18] baseline on four
// topologies, under churn and under randomized tie-breaking. An engine or
// responder change that only reschedules work must leave this table
// untouched.
func TestGoldenResults(t *testing.T) {
	gs := goldenGraphs(t)
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			res, err := c.run(gs[c.graph])
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want, ok := goldenWant[c.name]
			if !ok {
				t.Fatalf("no golden row for %s", c.name)
			}
			if got := goldenOf(res); got != want {
				t.Errorf("result diverged from the golden table:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestIdleRespondersSleep: Algorithm 2's responders wait on messages almost
// all the time, so the engine must step them only at their own timed events
// (census deadline, flood window) or on arrival. On the ring of cliques the
// run steps under a quarter of the N·Rounds node-rounds.
func TestIdleRespondersSleep(t *testing.T) {
	g := goldenGraphs(t)["ringcliques4x8"]
	res, err := ApproxLocalMixingTime(g, 0, 4, 0.05, WithIrregular())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if limit := int64(g.N()) * int64(st.Rounds) / 4; st.ActiveSteps > limit {
		t.Errorf("ActiveSteps = %d over %d rounds: above N·Rounds/4 = %d, idle responders are being stepped",
			st.ActiveSteps, st.Rounds, limit)
	}
}
