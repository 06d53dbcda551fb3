package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// Distributed sweeps. A sweep job has no data-plane mesh: each per-source
// run fits on one peer (which executes it on its warm core.SweepPool), so
// the cluster only fans sources out. The coordinator resolves the canonical
// source list exactly as the single-process sweep does, partitions it on
// the same fixed sweep.ChunkSize grid, dispatches chunks to peers
// dynamically (a shared counter — fast peers take more chunks), slots each
// chunk's results back at its canonical indices, and folds them with
// core.MergeSweep. Per-source seeds depend only on (base seed, source), so
// the assembled MultiResult is reflect.DeepEqual to the single-process
// sweep for every peer count, including a single peer.

// runSweep executes one sweep job over the registered peers. The peers
// receive the task with Sources/Sample cleared — the source selection lives
// only in the chunks — so every chunk of one sweep hits the same warm pool.
func (c *Coordinator) runSweep(ctx context.Context, gs spec.GraphSpec, ts spec.TaskSpec, peers []*peerConn, n int) (any, error) {
	sources, err := sweep.ResolveSources(n, ts.Seed, ts.Sources, ts.Sample)
	if err != nil {
		return nil, err
	}
	pts := ts
	pts.Sources, pts.Sample = nil, 0
	want := len(peers)

	// Prepare/ready/start handshake, as in the engine path but meshless:
	// ready carries no listener address, only the resident graph bytes.
	var firstErr error
	prepared := 0
	for p, pc := range peers {
		if err := pc.enc.Encode(ctrlMsg{Type: msgPrepare, Peer: p, Peers: want, Graph: &gs, Task: &pts}); err != nil {
			firstErr = fmt.Errorf("cluster: peer %d: send prepare: %w", p, err)
			c.drop(pc)
			break
		}
		prepared++
	}
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
		if err := pc.enc.Encode(ctrlMsg{Type: msgStart}); err != nil {
			firstErr = fmt.Errorf("cluster: peer %d: send start: %w", p, err)
			c.drop(pc)
			for _, rest := range peers[p+1:] {
				rest.enc.Encode(ctrlMsg{Type: msgAbort})
			}
			break
		}
		started++
	}

	// Chunk dispatch: one goroutine per started peer claims chunk indices
	// from the shared counter and writes results into the canonical slots.
	// Any failure — a dropped peer, a peer-reported chunk error, ctx
	// cancellation — stops further dispatch; in-flight chunks drain first.
	nchunks := (len(sources) + sweep.ChunkSize - 1) / sweep.ChunkSize
	results := make([]*core.Result, len(sources))
	errs := make([]error, nchunks)
	var next atomic.Int64
	var failed atomic.Bool
	stopCancel := context.AfterFunc(ctx, func() { failed.Store(true) })
	defer stopCancel()
	var wg sync.WaitGroup
	for p, pc := range peers[:started] {
		wg.Add(1)
		go func(p int, pc *peerConn) {
			defer wg.Done()
			c.sweepPeer(p, pc, sources, results, errs, &next, &failed)
		}(p, pc)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// Error precedence mirrors sweep.Pool: the lowest-index failed chunk
	// reports, so the error text is peer-count invariant modulo attribution.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return core.MergeSweep(sources, results), nil
}

// sweepPeer drives one peer through the chunk loop: claim a chunk, send it,
// decode the per-source results into the canonical slots, repeat until the
// sources run out or the job fails; then release the peer with done.
// Transport failures drop the peer; a peer-reported chunk error leaves it
// registered (it answered — the job failed, not the peer).
func (c *Coordinator) sweepPeer(p int, pc *peerConn, sources []int, results []*core.Result, errs []error, next *atomic.Int64, failed *atomic.Bool) {
	fail := func(ci int, err error, dead bool) {
		errs[ci] = err
		failed.Store(true)
		if dead {
			c.drop(pc)
		}
	}
	for !failed.Load() {
		ci := int(next.Add(1) - 1)
		lo := ci * sweep.ChunkSize
		if lo >= len(sources) {
			break
		}
		hi := min(lo+sweep.ChunkSize, len(sources))
		if err := pc.enc.Encode(ctrlMsg{Type: msgChunk, Sources: sources[lo:hi]}); err != nil {
			fail(ci, fmt.Errorf("cluster: peer %d: send chunk: %w", p, err), true)
			return
		}
		var m ctrlMsg
		if err := pc.rd.next(&m); err != nil {
			fail(ci, fmt.Errorf("cluster: peer %d: await chunk result: %w", p, err), true)
			return
		}
		if m.Type != msgChunkRes {
			fail(ci, fmt.Errorf("cluster: peer %d: unexpected %q awaiting chunk result", p, m.Type), true)
			return
		}
		if m.Err != "" {
			fail(ci, fmt.Errorf("cluster: peer %d: %s", p, m.Err), false)
			break
		}
		var rs []*core.Result
		if err := json.Unmarshal(m.Result, &rs); err != nil {
			fail(ci, fmt.Errorf("cluster: peer %d: decode chunk result: %w", p, err), true)
			return
		}
		if len(rs) != hi-lo {
			fail(ci, fmt.Errorf("cluster: peer %d: chunk of %d sources answered with %d results", p, hi-lo, len(rs)), true)
			return
		}
		copy(results[lo:hi], rs)
		c.chunks.Add(1)
	}
	pc.enc.Encode(ctrlMsg{Type: msgDone}) // best effort: back to idle
}

// serveSweep is the peer half of the chunk loop: answer each chunk with the
// pool's results for exactly those sources, until done (or abortive
// failure). Chunk-local failures are reported in the chunkres message and
// keep the loop serving — the coordinator decides whether to continue.
func serveSweep(enc *json.Encoder, rd *ctrlReader, pool *core.SweepPool, poolErr error) error {
	for {
		var m ctrlMsg
		if err := rd.next(&m); err != nil {
			return fmt.Errorf("cluster: await chunk: %w", err)
		}
		switch m.Type {
		case msgDone:
			return nil
		case msgChunk:
			res := ctrlMsg{Type: msgChunkRes}
			switch {
			case poolErr != nil:
				res.Err = poolErr.Error()
			case len(m.Sources) == 0:
				res.Err = "cluster: chunk without sources"
			default:
				out, err := pool.Sweep(core.SweepOptions{Sources: m.Sources})
				if err != nil {
					res.Err = err.Error()
				} else if b, err := json.Marshal(out.Results); err != nil {
					res.Err = fmt.Sprintf("cluster: encode chunk result: %v", err)
				} else {
					res.Result = b
				}
			}
			if err := enc.Encode(res); err != nil {
				return fmt.Errorf("cluster: send chunk result: %w", err)
			}
		default:
			return fmt.Errorf("cluster: unexpected control message %q serving sweep chunks", m.Type)
		}
	}
}
