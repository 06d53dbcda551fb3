// Package localmix is the public API of this repository: a full
// implementation of "Local Mixing Time: Distributed Computation and
// Applications" (Molla & Pandurangan, IPDPS 2018).
//
// The local mixing time τ_s(β, ε) of a vertex s is the earliest time at
// which the random-walk distribution from s is ε-close (in L1) to the
// stationary distribution restricted to *some* set S ∋ s of size ≥ n/β
// (Definition 2 of the paper). It refines the classical mixing time: on a
// β-barbell graph the mixing time is Ω(β²) while the local mixing time is
// O(1).
//
// Four layers are exposed:
//
//   - Graph construction: Builder and the generator functions (Barbell,
//     RingOfCliques, RandomRegular, Path, Complete, Torus, Hypercube, …).
//   - Centralized oracles: MixingTime, LocalMixingTime, GraphMixingTime —
//     exact float64 computations for analysis and ground truth, running on
//     the shared batched walk kernel.
//   - Distributed algorithms: DistributedLocalMixingTime (Algorithm 2,
//     Theorem 1), DistributedExactLocalMixingTime (§3.2, Theorem 2),
//     DistributedMixingTime (the [18] baseline), the multi-source sweep
//     variants (DistributedGraphLocalMixingTime and friends, SweepOptions)
//     — CONGEST-model simulations with honest round/message/bandwidth
//     accounting — and PushPull (§4, Theorem 3) for partial information
//     spreading.
//   - Dynamic networks: every distributed entry point, and DynamicWalk,
//     runs under deterministic per-round edge churn when given
//     WithTopology (EdgeMarkovChurn, IntervalChurn, SnapshotChurn, …), the
//     regime of the dynamic-network follow-on work of Das Sarma, Molla and
//     Pandurangan.
//
// Everything is deterministic from explicit seeds, and every parallel
// subsystem — the round engine, the walk kernel, the sweep pool — produces
// identical results for every worker count, so parallelism is purely a
// throughput knob.
//
// See examples/quickstart for a five-minute tour, examples/dynamic for
// churned runs, and docs/ARCHITECTURE.md for the layer map and the
// paper-notation glossary.
package localmix
