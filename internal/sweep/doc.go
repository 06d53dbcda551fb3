// Package sweep is the parallel multi-source sweep engine for the
// distributed algorithms: it runs one per-source CONGEST computation for
// many sources concurrently on a pool of workers, where each worker owns a
// single reusable congest.Network (plus whatever per-worker scratch the
// runner factory captures). The paper's headline quantity is graph-wide —
// τ(β,ε) = max_v τ_v(β,ε) (Definition 2) — so every experiment sweeps
// sources; before this package the sweep rebuilt the network (bandwidth
// slots, contexts, inboxes, RNGs) from scratch for each of the n sources
// and ran them serially.
//
// # Determinism
//
// Sweep results are identical for every worker count:
//
//   - Sources are dispatched in fixed-size chunks of the canonical source
//     list; which worker claims which chunk is scheduling, but results are
//     written to the slot of their source index, so the merged output order
//     never depends on the schedule.
//   - Each per-source run executes on a freshly reset network seeded with a
//     seed derived from (base seed, source id) alone — never from worker
//     identity or claim order.
//   - Network reuse is exact: congest.Network.Run rewinds all run state in
//     place — including the dynamic-topology overlay, so churned sweeps
//     replay the same schedule per source — and a warm network reproduces a
//     cold network's results bit for bit (enforced by the congest reuse
//     tests).
//
// # Seed derivation
//
// Per-source engine seeds are derived with a splitmix64 step:
//
//	seed(source) = mix64(base + (source+1)·0x9E3779B97F4A7C15)
//
// where mix64 is the splitmix64 output finalizer. This is exactly the
// splitmix64 stream seeded at the base seed, advanced source+1 increments of
// the golden-ratio gamma: distinct sources land on distinct, statistically
// independent streams, and a fixed base seed reproduces the whole sweep.
// The same DeriveSeed scheme seeds the per-round churn streams of
// internal/dyngraph, so all derived randomness in the repository follows
// one auditable rule. The previous implementation reused the base seed
// verbatim for every source, so all per-source RNG streams were correlated
// — a sweep with randomized tie-breaking (Config.TieBreakBits > 0) made the
// same perturbation decisions at every source.
package sweep
