// Package cluster runs one CONGEST computation across N lmtd processes: a
// coordinator that owns job dispatch and result collection, and peer
// runtimes that each drive the congest engine over a contiguous vertex
// shard, exchanging per-round halo traffic directly with each other as
// binary frames (internal/congest/frame).
//
// Two planes, two codecs. The control plane — registration, job dispatch,
// results, the terminal done/abort, sweep chunks — is newline-delimited
// JSON between each peer and the coordinator: low rate, debuggable with a
// pipe, and silent while an engine job runs. The data plane — every
// cross-shard message of every round, plus the round's control report — is
// the length-prefixed binary frame codec over a full peer-to-peer TCP mesh
// (peer i dials every j < i, accepts every j > i), one frame per (peer,
// round), never relayed through the coordinator.
//
// Per round, each peer: steps its shard; exchanges frames with every other
// peer (congest.Exchanger), each headed by its round report; folds the P
// reports; and delivers, merging inbound frames around its local mailbox
// matrix in ascending peer order. Every peer takes the stop, error-abort
// and fast-forward decisions from the same folded values in the same
// round, so round counters advance in lockstep with no coordinator on the
// round path. The frame I/O is pipelined (meshExchanger): a writer and a
// reader goroutine per link overlap outbound flushes and inbound decodes
// with the engine's compute, so the engine blocks only when a frame
// genuinely has not arrived — that residual wait is measured and exported
// as lmtd_cluster_round_wait_ns_total.
//
// The determinism contract is inherited from the engine (see
// internal/congest cluster mode): a job's results are DeepEqual to the
// single-process run with the same seed, for any peer count. The
// coordinator therefore returns the source-owning peer's result verbatim,
// swapping in the congest.MergeStats fold of all peers' engine statistics.
//
// Supported task kinds are the distributed single-source ones whose state
// is message-driven end to end — local, mixing, and walk — plus sweeps,
// which fan whole source chunks out over the control plane.
package cluster
