// Package frame is the wire codec of cluster mode: a length-prefixed binary
// framing of one shard group's per-round CONGEST traffic to one peer.
//
// A frame is the unit the transport sends per (peer, round): every message a
// cluster peer's local shards queued for one remote peer in one round,
// batched into a single write, headed by the sender's round report (Report)
// — the control inputs every peer folds to take the round's stop, abort and
// fast-forward decision without a coordinator. The layout is little-endian
// and fixed-width apart from the error text:
//
//	offset  size  field
//	0       4     payload length L (bytes after this prefix; ≤ MaxFrameBytes)
//	4       4     magic "LMF2" (rejects cross-protocol, misframed and LMF1 reads)
//	8       4     round the traffic was sent in
//	12      4     sending peer index
//	16      4     record count C
//	20      8     report: Step invocations this round
//	28      8     report: non-bounced messages sent this round
//	36      4     report: nodes halted this round
//	40      4     report: earliest wake-up round of a stepped-over sleeper
//	44      4     error text length E (≤ MaxErrBytes; L = 44 + E + C·RecordBytes)
//	48      E     error text ("" when the sender is healthy)
//	48+E    C·34  records
//
// Each record is one congest.Message with its destination vertex — the fixed
// fields only; payload slabs are a LOCAL-model facility and never cross the
// wire (cluster runs are CONGEST-only). Records preserve send order: the
// engine fills frames in (ascending sender id, send order) and the receiver
// replays them in peer order, which is what keeps a cluster run's delivery
// order — and therefore its results — byte-identical to the single-process
// run.
//
// Decoding is defensive end to end: a bad magic, an oversized or undersized
// length prefix, an error text over MaxErrBytes, a count or error length
// disagreeing with the length, a negative round, peer or report count, or a
// truncated record slab all return errors (never panic, never
// over-allocate), enforced by FuzzFrameDecode.
package frame
