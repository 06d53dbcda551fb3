// Package exact provides centralized ground-truth oracles for everything the
// distributed algorithms estimate: the random-walk probability distribution
// p_t (float64 power iteration), the stationary distribution π, the mixing
// time τ_mix_s(ε) (Definition 1), the local mixing time τ_s(β, ε)
// (Definition 2) together with a witness local-mixing set, the graph-wide
// τ(β,ε) = max_s τ_s (Definition 2 / footnote 6), and the Lemma 4
// escape-probability quantities.
//
// These oracles are used by the test suite to validate the CONGEST
// algorithms and by the benchmark harness to report paper-vs-measured
// numbers. Each oracle quantity has one implementation, its kernel form
// (MixingTimeKernel, GraphMixingTimeKernel, LocalMixingKernel,
// GraphLocalMixingKernel); MixingTime, GraphMixingTime, LocalMixing and
// GraphLocalMixing check their parameters, build a kernel with NewKernel
// and call it.
//
// All walk evolution runs on the shared internal/walkkernel pull kernel:
// steps are division-free, allocation-free in the steady state, parallel
// over vertex blocks, and bit-identical for every worker count. The worker
// count lives on the kernel (NewKernel(g, w); LocalOptions.Workers for the
// building forms), so every oracle output (T, R, witness sets, full
// distributions) is deterministic for any setting (regression-tested).
// Bipartite graphs fail fast with ErrBipartiteNonLazy unless the lazy walk
// is selected, mirroring §2.1's convergence requirement.
package exact
