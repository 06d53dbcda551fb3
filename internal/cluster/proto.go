package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/congest"
	"repro/internal/spec"
)

// Control-plane message types. Per job, the coordinator and each peer
// exchange:
//
//	peer → coord   hello                       once, on connect
//	coord → peer   prepare{peer, peers, graph, task}
//	peer → coord   ready{mesh}                 mesh listener address, or err
//	coord → peer   start{addrs} | abort        abort when any peer's ready failed
//	peer → coord   result{result, stats, waitNs, authoritative} or result{err}
//	coord → peer   done | abort                exactly one per started peer
//
// Nothing crosses the control plane while an engine job runs: round
// control rides the data-plane frame headers. The coordinator's one
// terminal message is done after the peer's result, or abort — on
// cancellation or another peer's failure — which may arrive mid-run and
// makes the peer close its mesh.
//
// Sweep jobs replace the result phase with a chunk loop — no data-plane
// mesh, just source fan-out on the control connection:
//
//	coord → peer   chunk{sources}              one canonical source chunk
//	peer → coord   chunkres{result} or chunkres{err}
//	coord → peer   done                        sweep over; peer back to idle
//
// Every message is one newline-terminated JSON object (the encoding/json
// Encoder framing); the decoding side is the line-based ctrlReader, which
// tags every malformed, truncated, or oversized message with ErrCtrl.
const (
	msgHello    = "hello"
	msgPrepare  = "prepare"
	msgReady    = "ready"
	msgStart    = "start"
	msgAbort    = "abort"
	msgResult   = "result"
	msgChunk    = "chunk"
	msgChunkRes = "chunkres"
	msgDone     = "done"
)

// ctrlMsg is the control-plane envelope; Type selects which fields are
// meaningful (see the message table above).
type ctrlMsg struct {
	Type  string `json:"type"`
	Peer  int    `json:"peer,omitempty"`
	Peers int    `json:"peers,omitempty"`
	// Mesh is the peer's freshly opened data-plane listener (ready).
	Mesh string `json:"mesh,omitempty"`
	// Addrs lists every peer's mesh address, indexed by peer (start).
	Addrs []string `json:"addrs,omitempty"`
	// Graph and Task describe the job (prepare).
	Graph *spec.GraphSpec `json:"graph,omitempty"`
	Task  *spec.TaskSpec  `json:"task,omitempty"`
	// Result is the kind-specific result JSON: the authoritative peer's
	// answer (result), or one chunk's []*core.Result (chunkres).
	Result json.RawMessage `json:"result,omitempty"`
	// Stats are the peer's engine counters (result).
	Stats         *congest.Stats `json:"stats,omitempty"`
	Authoritative bool           `json:"authoritative,omitempty"`
	// WaitNs is the time the peer spent blocked on inbound frames during
	// the run (result) — the lmtd_cluster_round_wait_ns_total metric.
	WaitNs int64 `json:"waitNs,omitempty"`
	// Sources is one sweep chunk's source list (chunk).
	Sources []int `json:"sources,omitempty"`
	// Resident is the peer's resident graph bytes for the prepared job
	// (ready) — graph.ResidentBytes of the full build or the CSR shard.
	Resident int64 `json:"resident,omitempty"`
	// Err reports a peer-local failure (ready, result, chunkres).
	Err string `json:"err,omitempty"`
}

// ErrCtrl tags every control-plane decoding failure: malformed JSON,
// truncated streams, oversized or type-less messages. Transport-level
// failures (clean EOF, closed connections) pass through untagged so callers
// can distinguish "the peer hung up" from "the peer spoke garbage".
var ErrCtrl = errors.New("cluster: control protocol error")

// maxCtrlLine bounds one control message. Prepare messages carry the task
// spec (explicit source lists included) and chunkres messages carry up to
// ChunkSize full results, all far below this; anything larger is a corrupt
// or hostile stream.
const maxCtrlLine = 16 << 20

// ctrlReader decodes newline-delimited JSON control messages with a hard
// per-message size cap. It is the single decoding path of the control
// plane — coordinator and peer both read through it — so the ErrCtrl
// tagging contract (and the FuzzControlPlane guarantees) hold everywhere.
type ctrlReader struct {
	r    *bufio.Reader
	line []byte
}

func newCtrlReader(r io.Reader) *ctrlReader {
	return &ctrlReader{r: bufio.NewReader(r)}
}

// next decodes one message into m. It returns io.EOF only on a clean
// boundary (no partial message buffered); every malformed, truncated, or
// oversized message yields an error wrapping ErrCtrl. Transport errors
// (closed connections) pass through untouched.
func (c *ctrlReader) next(m *ctrlMsg) error {
	c.line = c.line[:0]
	for {
		frag, err := c.r.ReadSlice('\n')
		c.line = append(c.line, frag...)
		if len(c.line) > maxCtrlLine {
			return fmt.Errorf("%w: message exceeds %d bytes", ErrCtrl, maxCtrlLine)
		}
		if err == nil {
			break
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		if errors.Is(err, io.EOF) {
			if len(c.line) == 0 {
				return io.EOF
			}
			return fmt.Errorf("%w: truncated message at EOF", ErrCtrl)
		}
		return err
	}
	*m = ctrlMsg{}
	if err := json.Unmarshal(c.line, m); err != nil {
		return fmt.Errorf("%w: %v", ErrCtrl, err)
	}
	if m.Type == "" {
		return fmt.Errorf("%w: message without a type", ErrCtrl)
	}
	return nil
}

// Connection-establishment budgets. Once a job is running, rounds have no
// deadline — the engine computes as long as it computes — but setup steps
// against unreachable peers must fail instead of hanging the job.
const (
	ctrlDialTimeout = 10 * time.Second
	meshDialTimeout = 10 * time.Second
	meshSetupBudget = 30 * time.Second
)

// writeMeshPreamble identifies the dialing peer on a fresh mesh connection:
// a 4-byte little-endian peer index, the only non-frame bytes the data
// plane ever carries.
func writeMeshPreamble(c net.Conn, peer int) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(peer))
	_, err := c.Write(b[:])
	return err
}

func readMeshPreamble(c net.Conn) (int, error) {
	var b [4]byte
	if _, err := io.ReadFull(c, b[:]); err != nil {
		return 0, err
	}
	return int(int32(binary.LittleEndian.Uint32(b[:]))), nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// validateJob enforces the cluster-computable envelope shared by the
// coordinator's fast path and every peer's own check: a distributable kind,
// no churn (providers are service-internal), and a sane peer count. Engine
// kinds shard one run and need at least 2 peers; sweeps fan whole source
// chunks out, so a single peer is legal.
func validateJob(ts *spec.TaskSpec, peers int) error {
	if !spec.ClusterKinds[ts.Kind] {
		return fmt.Errorf("cluster: kind %s does not distribute (want %s, %s, %s or %s)",
			ts.Kind, spec.KindLocal, spec.KindMixing, spec.KindWalk, spec.KindSweep)
	}
	if ts.Churn != nil {
		return fmt.Errorf("cluster: churn models are not supported over the wire yet")
	}
	if min := minPeers(ts.Kind); peers < min {
		return fmt.Errorf("cluster: need at least %d peers, have %d", min, peers)
	}
	return nil
}

// minPeers is the smallest legal cluster for a kind.
func minPeers(k spec.Kind) int {
	if k == spec.KindSweep {
		return 1
	}
	return 2
}
