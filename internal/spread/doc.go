// Package spread implements §4 of the paper: partial information spreading
// via the synchronous push–pull gossip mechanism in the LOCAL model.
//
// Every node starts with one distinct token. In each round every node picks
// a uniformly random neighbor and the pair exchanges all tokens they hold
// (push and pull). (δ, β)-partial information spreading (Definition 3) is
// achieved when every token has reached at least n/β nodes AND every node
// holds at least n/β distinct tokens. Theorem 3 shows push–pull achieves
// this in O(τ(β,ε)·log n) rounds w.h.p., which also yields the termination
// rule: run for Θ(τ log n) rounds, with τ computed by the algorithms in
// internal/core.
//
// Token sets are bitsets and exchanges are unions, which models the LOCAL
// assumption of unbounded per-round messages. Two runners are provided: the
// direct LOCAL-model simulator (Run, RunCollecting), and the footnote-10
// CONGEST variant (RunCongest) on the round engine, restricted to one
// O(log n)-bit token id per message. Both are seeded, reproducible and
// deterministic for every worker count.
package spread
