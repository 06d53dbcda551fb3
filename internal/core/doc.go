// Package core implements the paper's distributed algorithms on top of the
// congest engine and protocol toolkit:
//
//   - Algorithm 1, ESTIMATE-RW-PROBABILITY: deterministic flooding of the
//     random-walk distribution in fixed point (§2.4).
//   - Algorithm 2, LOCAL-MIXING-TIME: the doubling 2-approximation of
//     τ_s(β, ε) with the (1+ε)-grid of set sizes and 4ε test (§3, Theorem 1).
//   - The exact variant with unit length increments (§3.2, Theorem 2).
//   - The [18]-style distributed mixing-time computation used as the
//     baseline the paper compares against (O(τ_mix log n) rounds).
//   - The token-forwarding random walk (TokenWalk), one hop per round.
//
// Every computation also runs on a dynamic network (WithTopology), following
// the dynamic-network random-walk line of Das Sarma, Molla and Pandurangan;
// see "Dynamic networks" below. TaskConfig maps a job-layer task spec onto
// the Config of one run.
//
// Each algorithm is realized by two congest.Process implementations: a
// generic responder (node.go) run by every vertex, and a driver (driver.go)
// run by the source s that orchestrates epochs and makes the stopping
// decision, exactly as in the paper where s collects the R smallest
// differences via distributed binary search over the BFS tree.
//
// A responder acts on its own at two timed events only: its census join
// deadline, while its children list is open, and each round of its
// flooding window while it holds mass. Everything else — joining the tree,
// census reports, SETR/QUERY/CHECK aggregations, STOP — reacts to a
// message. So every responder step ends with congest.Context.Sleep until
// its next timed event, and message arrival wakes it earlier. Handlers draw
// randomness only on arrival, so the skipped steps would have changed
// nothing: results, rounds and messages are those of stepping every node
// every round, while Stats.ActiveSteps follows events instead of
// node-rounds. The driver never sleeps.
//
// Standalone Algorithm 1 (EstimateRWProbability) works the same way: a
// node that holds no mass sleeps until round ℓ+1, when every node halts,
// and arriving mass wakes it. Before the last round only the ℓ-ball around
// the source is stepped, and the engine carves inboxes only for the nodes
// that receive, so a short walk on a large graph pays for the ball.
//
// # Dynamic networks
//
// With a congest.TopologyProvider attached (Config.Engine.Topology,
// WithTopology), the flooding of Algorithm 1 evolves on the per-round
// active topology: each node divides its mass by its *active* degree and
// sends shares only over active edges, holding everything when isolated, so
// mass is conserved exactly under arbitrary churn. The control plane — BFS
// tree, census, SETR/QUERY/CHECK aggregations, STOP — rides the static
// superset out of band; the measured τ is the earliest length at which the
// *dynamic* walk passes the paper's test against the static targets
// (uniform 1/R for the local modes, the superset's π for MixTime). The
// token protocol in token.go additionally realizes single-walk hops with
// edge-loss restarts (bounce + resend), the dynamic model's per-hop cost.
//
// # Determinism
//
// Every run is reproducible from (graph, Config): per-node randomness comes
// from the engine's seeded RNGs, churn from the provider's seeded per-round
// streams, and results — including multi-source sweeps, which derive
// per-source seeds via sweep.DeriveSeed — are byte-identical for every
// engine and sweep worker count (regression-tested).
package core
