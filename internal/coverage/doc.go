// Package coverage implements the distributed maximum-coverage application
// of partial information spreading (paper §1/§4, following Censor-Hillel &
// Shachnai [4]): every node owns a subset of a ground set of elements; the
// goal is to pick k nodes whose subsets jointly cover as many elements as
// possible.
//
// The distributed protocol runs partial information spreading so that every
// node learns at least n/β of the subsets, then each node runs the greedy
// algorithm on the subsets it has seen, and the network adopts the best
// local answer (disseminated with a second gossip phase, here evaluated
// directly). The quality benchmark is the centralized greedy algorithm,
// which achieves the optimal 1−1/e approximation.
//
// Instances and protocols are seeded: a fixed (instance rng, protocol seed)
// pair reproduces the whole run. The spreading phase is spread.RunCollecting,
// the LOCAL-model push–pull simulator, whose results do not depend on its
// worker count.
package coverage
