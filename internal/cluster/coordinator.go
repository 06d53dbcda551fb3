package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/spec"
)

// Coordinator accepts peer registrations and executes cluster jobs over
// them: it dispatches the job spec, collects the per-peer results, and
// assembles the single-process-equivalent answer. It is never on the round
// path — peers take every round decision from the reports in their frame
// headers. One job runs at a time; concurrent Run calls serialize.
type Coordinator struct {
	ln net.Listener

	mu     sync.Mutex
	cond   *sync.Cond
	peers  []*peerConn
	closed bool

	runMu sync.Mutex

	// chunks counts sweep chunks dispatched to peers, cumulatively across
	// jobs (the lmtd_cluster_sweep_chunks_total metric).
	chunks atomic.Int64
	// roundWait accumulates the nanoseconds peers reported blocked on
	// inbound frames (the lmtd_cluster_round_wait_ns_total metric).
	roundWait atomic.Int64
	// resident holds the per-peer resident graph bytes reported in the last
	// job's ready messages, guarded by statMu.
	statMu   sync.Mutex
	resident []int64
}

// peerConn is one registered peer's control connection.
type peerConn struct {
	conn net.Conn
	enc  *json.Encoder
	rd   *ctrlReader
}

// NewCoordinator listens on addr (e.g. ":9300", "127.0.0.1:0") and starts
// accepting peer registrations.
func NewCoordinator(addr string) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: coordinator listen on %s: %w", addr, err)
	}
	c := &Coordinator{ln: ln}
	c.cond = sync.NewCond(&c.mu)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the coordinator's listen address — what peers dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Peers returns the number of currently registered peers.
func (c *Coordinator) Peers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.peers)
}

// WaitForPeers blocks until at least n peers are registered, the context
// expires, or the coordinator closes.
func (c *Coordinator) WaitForPeers(ctx context.Context, n int) error {
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.peers) < n && !c.closed && ctx.Err() == nil {
		c.cond.Wait()
	}
	if c.closed {
		return errors.New("cluster: coordinator closed")
	}
	return ctx.Err()
}

// Close stops accepting registrations and drops every peer (their Serve
// loops return).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	c.closed = true
	peers := c.peers
	c.peers = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	err := c.ln.Close()
	for _, pc := range peers {
		pc.conn.Close()
	}
	return err
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.admit(conn)
	}
}

// admit registers one peer after its hello. Registration order assigns the
// peer indices of subsequent jobs.
func (c *Coordinator) admit(conn net.Conn) {
	conn = wrapConn(conn)
	rd := newCtrlReader(conn)
	var m ctrlMsg
	if err := rd.next(&m); err != nil || m.Type != msgHello {
		conn.Close()
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return
	}
	c.peers = append(c.peers, &peerConn{conn: conn, enc: json.NewEncoder(conn), rd: rd})
	c.cond.Broadcast()
}

// SweepChunks returns the number of sweep chunks dispatched to peers since
// the coordinator started, across all jobs.
func (c *Coordinator) SweepChunks() int64 { return c.chunks.Load() }

// RoundWaitNs returns the cumulative nanoseconds peers reported blocked on
// inbound frames, across all jobs — the coarse measure of how much wire
// latency the pipelined exchange failed to hide.
func (c *Coordinator) RoundWaitNs() int64 { return c.roundWait.Load() }

// PeerResidentBytes returns the per-peer resident graph bytes the last
// job's ready messages reported (index = peer index of that job): the CSR
// footprint of each peer's build — the full graph, or ~1/P of it when the
// family shards. Nil before the first job.
func (c *Coordinator) PeerResidentBytes() []int64 {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	return append([]int64(nil), c.resident...)
}

func (c *Coordinator) setResident(r []int64) {
	c.statMu.Lock()
	c.resident = r
	c.statMu.Unlock()
}

// drop removes a failed peer from the registry and closes its connection.
func (c *Coordinator) drop(pc *peerConn) {
	c.mu.Lock()
	for i, p := range c.peers {
		if p == pc {
			c.peers = append(c.peers[:i], c.peers[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	pc.conn.Close()
}

// peerOutcome is what one peer's collection goroutine gathered.
type peerOutcome struct {
	result json.RawMessage
	stats  *congest.Stats
	auth   bool
	errS   string // peer-reported run error
	err    error  // control-transport error
}

// Run executes one cluster job: the task over the graph, sharded across the
// first ts.Cluster.Peers registered peers (or all of them when the field is
// nil or zero). The returned value is exactly what the in-process runner
// family returns — *core.Result for local and mixing, *core.TokenWalkResult
// for walk, *core.MultiResult for sweeps — with engine kinds' Stats swapped
// for the congest.MergeStats fold of every peer's counters; the cluster
// determinism contract makes the rest of the result identical to the
// single-process run with the same seed.
//
// Cancelling ctx aborts an engine job within a round — every peer closes
// its mesh, so every Exchange fails — and a sweep job at its next chunk
// boundary; peers stay registered. A dropped peer aborts the other peers
// the same way.
func (c *Coordinator) Run(ctx context.Context, gs spec.GraphSpec, ts spec.TaskSpec) (any, error) {
	c.runMu.Lock()
	defer c.runMu.Unlock()

	want := 0
	if ts.Cluster != nil {
		want = ts.Cluster.Peers
	}
	ts.Cluster = nil // peers run the task directly; the routing fields are spent
	c.mu.Lock()
	peers := append([]*peerConn(nil), c.peers...)
	c.mu.Unlock()
	if want == 0 {
		want = len(peers)
	}
	if min := minPeers(ts.Kind); len(peers) < want || want < min {
		return nil, fmt.Errorf("cluster: job wants %d peers, %d registered", max(want, min), len(peers))
	}
	peers = peers[:want]
	if err := validateJob(&ts, want); err != nil {
		return nil, err
	}
	// Resolve the vertex count here too: a bad graph spec (or more peers
	// than vertices) fails fast with a direct error instead of a peer's
	// relayed one. Shardable families answer from the sharder — the
	// coordinator never materializes their graphs.
	var n int
	if sh, err := gs.Sharder(); err != nil {
		return nil, err
	} else if sh != nil {
		n = sh.N
	} else {
		g, err := gs.Build()
		if err != nil {
			return nil, err
		}
		n = g.N()
		if ts.Kind != spec.KindSweep {
			// One line per job here; the peers themselves only warn the
			// first time they meet the family.
			log.Printf("cluster: graph family %q has no sharded builder; peers build it in full", gs.Normalized().Family)
		}
	}
	if ts.Kind == spec.KindSweep {
		return c.runSweep(ctx, gs, ts, peers, n)
	}
	if want > n {
		return nil, fmt.Errorf("cluster: %d peers over %d vertices: every peer must own a vertex", want, n)
	}

	// Prepare/ready/start handshake, sequentially: dispatch the job, gather
	// every peer's fresh mesh listener, then release them into the mesh.
	var firstErr error
	prepared := 0
	for p, pc := range peers {
		if err := pc.enc.Encode(ctrlMsg{Type: msgPrepare, Peer: p, Peers: want, Graph: &gs, Task: &ts}); err != nil {
			firstErr = fmt.Errorf("cluster: peer %d: send prepare: %w", p, err)
			c.drop(pc)
			break
		}
		prepared++
	}
	addrs := make([]string, prepared)
	resident := make([]int64, prepared)
	alive := make([]bool, prepared)
	for p, pc := range peers[:prepared] {
		var m ctrlMsg
		if err := pc.rd.next(&m); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: peer %d: await ready: %w", p, err)
			}
			c.drop(pc)
			continue
		}
		alive[p] = true
		if m.Type != msgReady {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: peer %d: unexpected %q awaiting ready", p, m.Type)
			}
			continue
		}
		if m.Err != "" && firstErr == nil {
			firstErr = fmt.Errorf("cluster: peer %d: %s", p, m.Err)
		}
		addrs[p] = m.Mesh
		resident[p] = m.Resident
	}
	c.setResident(resident)
	if firstErr != nil {
		for p, pc := range peers[:prepared] {
			if alive[p] {
				pc.enc.Encode(ctrlMsg{Type: msgAbort}) // best effort; job is dead
			}
		}
		return nil, firstErr
	}

	started := 0
	for p, pc := range peers {
		if err := pc.enc.Encode(ctrlMsg{Type: msgStart, Addrs: addrs}); err != nil {
			firstErr = fmt.Errorf("cluster: peer %d: send start: %w", p, err)
			c.drop(pc)
			for _, rest := range peers[p+1:] {
				rest.enc.Encode(ctrlMsg{Type: msgAbort})
			}
			break
		}
		started++
	}

	// Collection: one goroutine per started peer awaits its result. Every
	// started peer then gets exactly one terminal message: done once all
	// results are in — a peer closes its mesh on it, and by then no peer
	// still reads its frames — or abort on a failed start, ctx
	// cancellation, or a lost control connection. An abort makes the peer
	// close its mesh at once, so every peer still running fails its next
	// Exchange and reports back. A peer-reported error needs no abort: an
	// engine error reaches every peer in its round's frame headers, and a
	// failed link fails the Exchange at both of its ends.
	term := make([]sync.Once, started)
	end := func(p int, typ string) {
		term[p].Do(func() { peers[p].enc.Encode(ctrlMsg{Type: typ}) }) // best effort
	}
	abortAll := func() {
		for p := range term {
			end(p, msgAbort)
		}
	}
	if firstErr != nil {
		abortAll()
	}
	stopCancel := context.AfterFunc(ctx, abortAll)
	defer stopCancel()
	outs := make([]peerOutcome, started)
	var wg sync.WaitGroup
	for p, pc := range peers[:started] {
		wg.Add(1)
		go func(p int, pc *peerConn) {
			defer wg.Done()
			out := &outs[p]
			if c.awaitResult(pc, out); out.err != nil {
				abortAll()
			}
		}(p, pc)
	}
	wg.Wait()
	for p := range term {
		end(p, msgDone)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return assemble(ts, outs)
}

// awaitResult reads one peer's result message into out. A control-plane
// failure drops the peer.
func (c *Coordinator) awaitResult(pc *peerConn, out *peerOutcome) {
	var m ctrlMsg
	if err := pc.rd.next(&m); err != nil {
		out.err = fmt.Errorf("control connection: %w", err)
	} else if m.Type != msgResult {
		out.err = fmt.Errorf("unexpected control message %q mid-run", m.Type)
	}
	if out.err != nil {
		c.drop(pc)
		return
	}
	out.result = m.Result
	out.stats = m.Stats
	out.auth = m.Authoritative
	out.errS = m.Err
	c.roundWait.Add(m.WaitNs)
}

// assemble folds the per-peer outcomes into the single-process-equivalent
// result: the authoritative (source-owning) peer's result JSON, with the
// stats — and, for walks, the stats-derived fields — replaced by the
// cluster-wide merge.
func assemble(ts spec.TaskSpec, outs []peerOutcome) (any, error) {
	// Error precedence: the authoritative peer's own failure is the run's
	// error (it matches the single-process error text); any other peer's
	// failure aborts with attribution.
	for p := range outs {
		if outs[p].auth && outs[p].errS != "" {
			return nil, fmt.Errorf("cluster: %s", outs[p].errS)
		}
	}
	for p := range outs {
		o := &outs[p]
		switch {
		case o.err != nil:
			return nil, fmt.Errorf("cluster: peer %d: %w", p, o.err)
		case o.errS != "":
			return nil, fmt.Errorf("cluster: peer %d: %s", p, o.errS)
		case o.stats == nil:
			return nil, fmt.Errorf("cluster: peer %d returned no engine stats", p)
		}
	}
	sts := make([]congest.Stats, len(outs))
	var auth json.RawMessage
	for p := range outs {
		sts[p] = *outs[p].stats
		if outs[p].auth {
			auth = outs[p].result
		}
	}
	if auth == nil {
		return nil, errors.New("cluster: no peer claimed the source (protocol bug)")
	}
	merged := congest.MergeStats(sts)
	if ts.Kind == spec.KindWalk {
		var r core.TokenWalkResult
		if err := json.Unmarshal(auth, &r); err != nil {
			return nil, fmt.Errorf("cluster: decode walk result: %w", err)
		}
		// Rounds is lockstep-identical everywhere, but Retries counts
		// bounced volatile sends wherever they happened — sum over peers.
		r.Rounds = merged.Rounds
		r.Retries = merged.DroppedSends
		r.Stats = &merged
		return &r, nil
	}
	var r core.Result
	if err := json.Unmarshal(auth, &r); err != nil {
		return nil, fmt.Errorf("cluster: decode %s result: %w", ts.Kind, err)
	}
	r.Stats = &merged
	return &r, nil
}
