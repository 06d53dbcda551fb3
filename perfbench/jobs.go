package main

import (
	"math/rand"
	"sort"

	"repro/internal/service"
	"repro/internal/spec"
)

// The graphs every workload draws from. Families and sizes are fixed, so
// levels stay comparable across seeds; the seed only picks task seeds, job
// order, sweep sources and arrival times.
var (
	gRing816  = spec.GraphSpec{Family: "ringcliques", Blocks: 8, K: 16} // n=128
	gRing48   = spec.GraphSpec{Family: "ringcliques", Blocks: 4, K: 8}  // n=32
	gBarbell  = spec.GraphSpec{Family: "barbell", Blocks: 8, K: 16}     // n=128, Figure 1
	gTorus32  = spec.GraphSpec{Family: "torus", Dim: 32}                // n=1024
	gTorus100 = spec.GraphSpec{Family: "torus", Dim: 100}               // n=10^4: engine state well past a 4 MiB L2
)

// Job classes. Each builds one request from a task seed.
const (
	clsLocal816   = "local-rc816"
	clsLocal48    = "local-rc48"
	clsMixing     = "mixing-rc48"
	clsWalk       = "walk-torus32"
	clsSweep      = "sweep-rc48"
	clsSweep16    = "sweep16-rc48"
	clsSpread     = "spread-barbell"
	clsOracleMix  = "oracle-mixing-torus32"
	clsOracleLoc  = "oracle-local-barbell"
	clsEstimate   = "estimate-torus32"
	clsEstimate1e = "estimate-torus100"
	clsFreshGraph = "oracle-mixing-expander"
)

// sweepSeed is the fixed base seed of every sweep job: sweeps vary their
// explicit sources instead, so the result cache misses while the service's
// warm sweep pool (keyed by the seed) is reused, as a real client reusing
// one configuration would see.
const sweepSeed = 7

// request builds the request of class cls with task seed seed; sweeps also
// draw their 8 or 16 sources from rng.
func request(cls string, seed int64, rng *rand.Rand) service.Request {
	switch cls {
	case clsLocal816:
		return service.Request{Graph: gRing816, Task: spec.TaskSpec{Kind: spec.KindLocal, Beta: 8, Irregular: true, Seed: seed}}
	case clsLocal48:
		return service.Request{Graph: gRing48, Task: spec.TaskSpec{Kind: spec.KindLocal, Beta: 4, Irregular: true, Seed: seed}}
	case clsMixing:
		return service.Request{Graph: gRing48, Task: spec.TaskSpec{Kind: spec.KindMixing, Seed: seed}}
	case clsWalk:
		return service.Request{Graph: gTorus32, Task: spec.TaskSpec{Kind: spec.KindWalk, Steps: 256, Seed: seed}}
	case clsSweep:
		return service.Request{Graph: gRing48, Task: spec.TaskSpec{Kind: spec.KindSweep, Beta: 4, Irregular: true,
			Seed: sweepSeed, Sources: pickSources(rng, 32, 8)}}
	case clsSweep16:
		return service.Request{Graph: gRing48, Task: spec.TaskSpec{Kind: spec.KindSweep, Beta: 4, Irregular: true,
			Seed: sweepSeed, Sources: pickSources(rng, 32, 16)}}
	case clsSpread:
		return service.Request{Graph: gBarbell, Task: spec.TaskSpec{Kind: spec.KindSpread, Beta: 8, Seed: seed}}
	case clsOracleMix:
		return service.Request{Graph: gTorus32, Task: spec.TaskSpec{Kind: spec.KindOracleMixing, Lazy: true, Seed: seed}}
	case clsOracleLoc:
		return service.Request{Graph: gBarbell, Task: spec.TaskSpec{Kind: spec.KindOracleLocal, Beta: 8, Seed: seed}}
	case clsEstimate:
		return service.Request{Graph: gTorus32, Task: spec.TaskSpec{Kind: spec.KindEstimate, Lazy: true, Steps: 16, Seed: seed}}
	case clsEstimate1e:
		return service.Request{Graph: gTorus100, Task: spec.TaskSpec{Kind: spec.KindEstimate, Lazy: true, Steps: 16, Seed: seed}}
	case clsFreshGraph:
		// A graph no earlier request named: the graph cache misses, builds
		// and evicts, and the walk kernel is built for it.
		return service.Request{Graph: spec.GraphSpec{Family: "expander", N: 128, D: 4, Seed: seed},
			Task: spec.TaskSpec{Kind: spec.KindOracleMixing, Lazy: true, Seed: seed}}
	}
	panic("perfbench: unknown job class " + cls)
}

// pickSources draws k distinct vertices of [0,n), ascending.
func pickSources(rng *rand.Rand, n, k int) []int {
	s := rng.Perm(n)[:k]
	sort.Ints(s)
	return s
}

// newSeed draws a fresh positive task seed.
func newSeed(rng *rand.Rand) int64 { return rng.Int63n(1<<40) + 1 }

// cycle expands class weights into one cycle of jobs in a seeded order.
// Workloads repeat the cycle, so every run sees the same mix in the same
// order, and p50 falls inside one class rather than jumping between
// classes as a random pick would let it.
func cycle(rng *rand.Rand, weights []classWeight) []string {
	var out []string
	for _, w := range weights {
		for i := 0; i < w.n; i++ {
			out = append(out, w.class)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

type classWeight struct {
	class string
	n     int
}

// sequence yields the closed-loop job sequence: the seeded cycle repeated,
// each job with a fresh task seed.
type sequence struct {
	rng   *rand.Rand
	cycle []string
	next  int
}

func newSequence(seed int64, weights []classWeight) *sequence {
	rng := rand.New(rand.NewSource(seed))
	return &sequence{rng: rng, cycle: cycle(rng, weights)}
}

// job returns the next job's class and request.
func (s *sequence) job() (string, service.Request) {
	cls := s.cycle[s.next%len(s.cycle)]
	s.next++
	return cls, request(cls, newSeed(s.rng), s.rng)
}
