package spec

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/gen"
)

func TestGraphSpecBuildMatchesGenerators(t *testing.T) {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(7)) }
	wantExp, err := gen.RandomRegular(32, 4, rng())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec GraphSpec
		want func() (interface{ N() int }, error)
	}{
		{GraphSpec{Family: "ringcliques", Blocks: 4, K: 5}, func() (interface{ N() int }, error) { return gen.RingOfCliques(4, 5) }},
		{GraphSpec{Family: "barbell", Blocks: 3, K: 4}, func() (interface{ N() int }, error) { return gen.Barbell(3, 4) }},
		{GraphSpec{Family: "torus", Dim: 4}, func() (interface{ N() int }, error) { return gen.Torus(4, 4) }},
		{GraphSpec{Family: "torus", Rows: 3, Cols: 5}, func() (interface{ N() int }, error) { return gen.Torus(3, 5) }},
		{GraphSpec{Family: "path", N: 9}, func() (interface{ N() int }, error) { return gen.Path(9) }},
		{GraphSpec{Family: "hypercube", Dim: 3}, func() (interface{ N() int }, error) { return gen.Hypercube(3) }},
		{GraphSpec{Family: "expander", N: 32, D: 4, Seed: 7}, func() (interface{ N() int }, error) { return wantExp, nil }},
	}
	for _, c := range cases {
		g, err := c.spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Key(), err)
		}
		want, err := c.want()
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != want.N() {
			t.Errorf("%s: built n=%d, generator n=%d", c.spec.Key(), g.N(), want.N())
		}
		if g.Name() == "" {
			t.Errorf("%s: built graph has no name", c.spec.Key())
		}
	}
}

func TestGraphSpecBuildDeterministic(t *testing.T) {
	s := GraphSpec{Family: "expander", N: 24, D: 3, Seed: 42}
	a, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("expander spec built two different graphs from one seed")
	}
}

func TestGraphSpecKeyNormalization(t *testing.T) {
	// Irrelevant fields must not fragment the key.
	a := GraphSpec{Family: "torus", Dim: 4, Seed: 99, K: 7, P: 0.5}
	b := GraphSpec{Family: "torus", Rows: 4, Cols: 4}
	if a.Key() != b.Key() {
		t.Fatalf("equal torus specs render different keys:\n  %s\n  %s", a.Key(), b.Key())
	}
	// The seed matters exactly for the randomized families.
	e1 := GraphSpec{Family: "expander", N: 16, D: 4, Seed: 1}
	e2 := GraphSpec{Family: "expander", N: 16, D: 4, Seed: 2}
	if e1.Key() == e2.Key() {
		t.Fatal("expander specs with different seeds share a key")
	}
	// Build-time defaults fold into the key: a lollipop with the Bridge=K
	// default spelled out builds the same graph, so it must share the key.
	l1 := GraphSpec{Family: "lollipop", K: 16}
	l2 := GraphSpec{Family: "lollipop", K: 16, Bridge: 16}
	if l1.Key() != l2.Key() {
		t.Fatalf("lollipop default-bridge specs render different keys:\n  %s\n  %s", l1.Key(), l2.Key())
	}
	ga, err := l1.Build()
	if err != nil {
		t.Fatal(err)
	}
	gb, err := l2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ga, gb) {
		t.Fatal("lollipop default-bridge specs build different graphs")
	}
}

func TestGraphSpecValidate(t *testing.T) {
	if err := (GraphSpec{Family: "moebius"}).Validate(); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := (GraphSpec{Family: "moebius"}).Build(); err == nil {
		t.Fatal("unknown family built")
	}
	if err := (GraphSpec{Family: "ringcliques", Blocks: 4, K: 5}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGraphSpecJSONRoundTrip(t *testing.T) {
	in := GraphSpec{Family: "expander", N: 64, D: 6, Seed: 3}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out GraphSpec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip changed the spec: %+v -> %+v", in, out)
	}
}

func TestTaskSpecJSONRoundTrip(t *testing.T) {
	in := TaskSpec{
		Kind: KindSweep, Beta: 4, Eps: 0.05, Lazy: true, Mode: "mixing",
		Seed: 9, SweepWorkers: 2, Sample: 8, DeadlineMS: 1500,
		Churn: &ChurnSpec{Model: "markov", Rate: 0.1, On: 0.5, Seed: 4},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out TaskSpec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the spec:\n  in  %+v\n  out %+v", in, out)
	}
	if in.Key() != out.Key() {
		t.Fatal("round trip changed the canonical key")
	}
}

func TestTaskSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		t    TaskSpec
		ok   bool
	}{
		{"known kind", TaskSpec{Kind: KindMixing}, true},
		{"unknown kind", TaskSpec{Kind: "teleport"}, false},
		{"bad eps", TaskSpec{Kind: KindMixing, Eps: 1.5}, false},
		{"retired dynamic kind", TaskSpec{Kind: "dynamic", Churn: &ChurnSpec{Model: "markov"}}, false},
		{"local with churn", TaskSpec{Kind: KindLocal, Churn: &ChurnSpec{Model: "markov"}}, true},
		{"mode on local", TaskSpec{Kind: KindLocal, Mode: "mixing"}, false},
		{"mode on mixing", TaskSpec{Kind: KindMixing, Mode: "mixing"}, false},
		{"mode on walk", TaskSpec{Kind: KindWalk, Mode: "approx"}, false},
		{"exact on local", TaskSpec{Kind: KindLocal, Exact: true}, true},
		{"exact on sweep", TaskSpec{Kind: KindSweep, Exact: true}, false},
		{"exact on mixing", TaskSpec{Kind: KindMixing, Exact: true}, false},
		{"sweep mode exact", TaskSpec{Kind: KindSweep, Mode: "exact"}, true},
		{"churn on oracle", TaskSpec{Kind: KindOracleMixing, Churn: &ChurnSpec{Model: "markov"}}, false},
		{"bad churn model", TaskSpec{Kind: KindMixing, Churn: &ChurnSpec{Model: "quantum"}}, false},
		{"bad sweep mode", TaskSpec{Kind: KindSweep, Mode: "fast"}, false},
		{"sweep mode mixing", TaskSpec{Kind: KindSweep, Mode: "mixing"}, true},
		{"bad transport", TaskSpec{Kind: KindSpread, Transport: "carrier-pigeon"}, false},
		{"congest transport", TaskSpec{Kind: KindSpread, Transport: "congest"}, true},
		{"retired engine transport", TaskSpec{Kind: KindSpread, Transport: "engine"}, false},
		{"coverage needs instance", TaskSpec{Kind: KindCoverage}, false},
		{"coverage with instance", TaskSpec{Kind: KindCoverage, Coverage: &CoverageSpec{Universe: 10, PerNode: 2, K: 2}}, true},
		{"deadline", TaskSpec{Kind: KindMixing, DeadlineMS: 500}, true},
		{"negative deadline", TaskSpec{Kind: KindMixing, DeadlineMS: -1}, false},
		{"empty sources", TaskSpec{Kind: KindSweep, Sources: []int{}}, false},
		{"nil sources", TaskSpec{Kind: KindSweep}, true},
	}
	for _, c := range cases {
		err := c.t.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestTaskSpecDeadline(t *testing.T) {
	if d := (TaskSpec{DeadlineMS: 250}).Deadline(); d != 250*time.Millisecond {
		t.Fatalf("Deadline() = %v, want 250ms", d)
	}
	if d := (TaskSpec{}).Deadline(); d != 0 {
		t.Fatalf("zero spec has deadline %v", d)
	}
	// Schedule-only: two specs differing only in DeadlineMS (or workers)
	// share one canonical key-modulo-schedule identity is enforced at the
	// service layer; the raw key may differ.
	a := TaskSpec{Kind: KindMixing, Seed: 1}
	b := a
	b.DeadlineMS = 100
	if a.Key() == b.Key() {
		t.Fatal("DeadlineMS missing from the canonical key")
	}
}

func TestKindsAreValid(t *testing.T) {
	seen := map[Kind]bool{}
	for _, k := range Kinds() {
		if seen[k] {
			t.Fatalf("kind %s listed twice", k)
		}
		seen[k] = true
		ts := TaskSpec{Kind: k}
		if k == KindCoverage {
			ts.Coverage = &CoverageSpec{Universe: 10, PerNode: 2, K: 2}
		}
		if err := ts.Validate(); err != nil {
			t.Errorf("kind %s does not validate: %v", k, err)
		}
	}
}
