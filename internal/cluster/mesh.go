package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/congest/frame"
)

// meshBufBytes sizes each link's buffered writer and reader: large enough
// that a typical round's frame reaches the kernel in one syscall, small
// enough to be irrelevant against the graph itself.
const meshBufBytes = 64 << 10

// meshLink is one open data-plane connection to a remote peer: buffered
// writes (one explicit flush per round) and a frame reader whose buffers
// are reused across rounds.
type meshLink struct {
	conn net.Conn
	bw   *bufio.Writer
	r    *frame.Reader
}

func newMeshLink(conn net.Conn) *meshLink {
	if tc, ok := conn.(interface{ SetNoDelay(bool) error }); ok {
		// Go's default, but set explicitly: frames flush exactly once per
		// round and the next round blocks on their arrival, so Nagle-style
		// coalescing could only ever add latency.
		tc.SetNoDelay(true)
	}
	return &meshLink{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, meshBufBytes),
		r:    frame.NewReader(bufio.NewReaderSize(conn, meshBufBytes)),
	}
}

func closeLinks(links []*meshLink) {
	for _, l := range links {
		if l != nil {
			l.conn.Close()
		}
	}
}

// setupMesh establishes this peer's full mesh: dial every lower-indexed
// peer (identifying ourselves with the preamble), then accept every
// higher-indexed one (identified by theirs). Dials succeed as soon as the
// remote listener exists — the TCP handshake does not wait for Accept — so
// the sequential dial-then-accept order cannot deadlock across peers.
// Canceling ctx (the job was aborted) fails a pending dial or accept. The
// job's listener is closed on return either way, so a peer that dialed in
// while this one failed is reset instead of left waiting for a frame.
func setupMesh(ctx context.Context, self int, addrs []string, ln net.Listener) ([]*meshLink, error) {
	links := make([]*meshLink, len(addrs))
	fail := func(err error) ([]*meshLink, error) {
		closeLinks(links)
		return nil, err
	}
	defer ln.Close()
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	d := net.Dialer{Timeout: meshDialTimeout}
	for q := 0; q < self; q++ {
		conn, err := d.DialContext(ctx, "tcp", addrs[q])
		if err != nil {
			return fail(fmt.Errorf("cluster: peer %d: dial mesh peer %d at %s: %w", self, q, addrs[q], err))
		}
		conn = wrapConn(conn)
		if err := writeMeshPreamble(conn, self); err != nil {
			conn.Close()
			return fail(fmt.Errorf("cluster: peer %d: mesh preamble to peer %d: %w", self, q, err))
		}
		links[q] = newMeshLink(conn)
	}
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Now().Add(meshSetupBudget))
	}
	for q := self + 1; q < len(addrs); q++ {
		conn, err := ln.Accept()
		if err != nil {
			return fail(fmt.Errorf("cluster: peer %d: accept mesh connection: %w", self, err))
		}
		conn = wrapConn(conn)
		id, err := readMeshPreamble(conn)
		if err != nil {
			conn.Close()
			return fail(fmt.Errorf("cluster: peer %d: read mesh preamble: %w", self, err))
		}
		if id <= self || id >= len(addrs) || links[id] != nil {
			conn.Close()
			return fail(fmt.Errorf("cluster: peer %d: unexpected mesh preamble id %d", self, id))
		}
		links[id] = newMeshLink(conn)
	}
	return links, nil
}

// inFrame is one decoded inbound frame, handed from a link's reader
// goroutine to the engine.
type inFrame struct {
	h    frame.Header
	recs []frame.Record
	err  error
}

// linkWriter owns the write side of one link. The engine encodes a round's
// frame synchronously — the source records are reused the moment Exchange
// returns — then hands the bytes to the goroutine, which pushes them onto
// the wire while the engine moves on to reading inbound frames and
// stepping the next round. At most one write is in flight per link; its
// ack is collected before the encode buffer is reused.
type linkWriter struct {
	ch      chan []byte
	ack     chan error
	pending bool
	buf     []byte
}

// linkReader owns the read side of one link: the goroutine decodes frames
// ahead of the engine into three rotating record buffers. Three suffice —
// at any moment one buffer is held by the engine, one sits decoded in the
// channel, and one is being filled off the wire.
type linkReader struct {
	ch   chan inFrame
	bufs [3][]frame.Record
}

// meshExchanger is the pipelined congest.Exchanger over the TCP mesh: one
// frame per remote peer per round, each way, with per-link writer and
// reader goroutines so serialization, syscalls and wire latency overlap
// the engine's compute. Outbound frames start flowing the moment the step
// phase ends; inbound frames for the next round are read off the wire
// while the engine is still delivering the current one. Each frame's
// header carries the sender's round report, so the exchange is also the
// round's control step.
type meshExchanger struct {
	self  int
	links []*meshLink // indexed by peer; nil at self
	wr    []*linkWriter
	rd    []*linkReader
	in    [][]frame.Record
	reps  []frame.Report
	done  chan struct{}
	once  sync.Once
	// waitNs accumulates the time Exchange spent blocked on inbound frames
	// (the lmtd_cluster_round_wait_ns_total metric): near zero when the
	// pipeline hides the wire, one RTT per round when it cannot.
	waitNs int64
}

func newMeshExchanger(self int, links []*meshLink) *meshExchanger {
	e := &meshExchanger{
		self:  self,
		links: links,
		wr:    make([]*linkWriter, len(links)),
		rd:    make([]*linkReader, len(links)),
		in:    make([][]frame.Record, len(links)),
		reps:  make([]frame.Report, len(links)),
		done:  make(chan struct{}),
	}
	for q, l := range links {
		if l == nil {
			continue
		}
		w := &linkWriter{ch: make(chan []byte, 1), ack: make(chan error, 1)}
		e.wr[q] = w
		go writeLoop(l, w, e.done)
		r := &linkReader{ch: make(chan inFrame, 1)}
		e.rd[q] = r
		go readLoop(l, r, e.done)
	}
	return e
}

func writeLoop(l *meshLink, w *linkWriter, done chan struct{}) {
	for {
		select {
		case b := <-w.ch:
			_, err := l.bw.Write(b)
			if err == nil {
				err = l.bw.Flush()
			}
			w.ack <- err // cap 1 and at most one write in flight: never blocks
			if err != nil {
				return
			}
		case <-done:
			return
		}
	}
}

func readLoop(l *meshLink, r *linkReader, done chan struct{}) {
	for i := 0; ; i++ {
		slot := i % len(r.bufs)
		var h frame.Header
		recs, _, err := l.r.ReadFrameAppend(&h, r.bufs[slot][:0])
		r.bufs[slot] = recs
		select {
		case r.ch <- inFrame{h: h, recs: recs, err: err}:
		case <-done:
			return
		}
		if err != nil {
			return
		}
	}
}

// errMeshClosed is what Exchange returns once the mesh is closed — by a
// failed link, or by an aborted job.
var errMeshClosed = errors.New("cluster: mesh closed")

// Exchange launches this round's writes, then collects one inbound frame
// per link in ascending peer order. The returned slices are the reader
// goroutines' rotating buffers: the slot handed out for round r is not
// refilled before the engine takes round r+1's frame — exactly the
// congest.Exchanger lifetime contract. A concurrent Close makes a blocked
// Exchange return errMeshClosed.
func (e *meshExchanger) Exchange(round int, rep frame.Report, out [][]frame.Record) ([][]frame.Record, []frame.Report, error) {
	h := frame.Header{Round: round, Peer: e.self, Report: rep}
	for q, w := range e.wr {
		if w == nil {
			continue
		}
		if w.pending {
			select {
			case err := <-w.ack:
				if err != nil {
					return e.fail(fmt.Errorf("cluster: mesh write to peer %d: %w", q, err))
				}
			case <-e.done:
				return e.fail(errMeshClosed)
			}
		}
		w.buf = frame.AppendFrame(w.buf[:0], &h, out[q])
		w.ch <- w.buf // cap 1, writer idle after the ack: never blocks
		w.pending = true
	}
	start := time.Now()
	for q, r := range e.rd {
		if r == nil {
			e.in[q], e.reps[q] = nil, frame.Report{}
			continue
		}
		var f inFrame
		select {
		case f = <-r.ch:
		case <-e.done:
			return e.fail(errMeshClosed)
		}
		if f.err != nil {
			return e.fail(fmt.Errorf("cluster: read frame from peer %d: %w", q, f.err))
		}
		if f.h.Round != round || f.h.Peer != q {
			return e.fail(fmt.Errorf("cluster: peer %d sent frame (round %d, peer %d), want (round %d, peer %d)", q, f.h.Round, f.h.Peer, round, q))
		}
		e.in[q], e.reps[q] = f.recs, f.h.Report
	}
	e.waitNs += time.Since(start).Nanoseconds()
	return e.in, e.reps, nil
}

func (e *meshExchanger) fail(err error) ([][]frame.Record, []frame.Report, error) {
	e.Close()
	return nil, nil, err
}

// Close tears down the mesh: stops the per-link goroutines and closes the
// connections. Idempotent and safe from any goroutine — an aborted job
// closes the mesh under a running engine, whose Exchange then fails; the
// exchanger is unusable afterwards.
func (e *meshExchanger) Close() {
	e.once.Do(func() {
		close(e.done)
		closeLinks(e.links)
	})
}
