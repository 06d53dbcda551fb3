package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/spec"
)

// Serve registers this process as one cluster peer and serves jobs until
// the coordinator closes the connection (returns nil) or the context is
// canceled (returns the context error). Each prepared engine job opens a
// fresh data-plane listener, meshes with the other peers, drives the engine
// over this peer's vertex shard, and reports the result back on the control
// connection; sweep jobs skip the mesh and serve source chunks from a warm
// sweep pool instead. Graphs and sweep pools stay cached across jobs, so
// repeated jobs on one graph pay construction once.
func Serve(ctx context.Context, coordAddr string) error {
	d := net.Dialer{Timeout: ctrlDialTimeout}
	conn, err := d.DialContext(ctx, "tcp", coordAddr)
	if err != nil {
		return fmt.Errorf("cluster: dial coordinator %s: %w", coordAddr, err)
	}
	conn = wrapConn(conn)
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	enc, rd := json.NewEncoder(conn), newCtrlReader(conn)
	if err := enc.Encode(ctrlMsg{Type: msgHello}); err != nil {
		return fmt.Errorf("cluster: register with coordinator: %w", err)
	}
	ps := &peerState{graphs: map[string]*graph.Graph{}, pools: map[string]*core.SweepPool{}, warned: map[string]bool{}}
	for {
		var m ctrlMsg
		if err := rd.next(&m); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil // coordinator shut down: a clean exit
			}
			return fmt.Errorf("cluster: control connection: %w", err)
		}
		if m.Type != msgPrepare {
			return fmt.Errorf("cluster: unexpected control message %q awaiting a job", m.Type)
		}
		if err := runJob(conn, enc, rd, ps, &m); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
	}
}

// peerState is one peer's job-to-job warm state: built graphs (full or this
// peer's shard) and sweep pools, keyed by the specs that produced them.
// Both caches are small and bounded — a peer serving many distinct specs
// resets them rather than growing without limit.
type peerState struct {
	graphs map[string]*graph.Graph
	pools  map[string]*core.SweepPool
	// warned remembers graph families already reported as non-shardable, so
	// the full-build fallback logs once per family, not once per job.
	warned map[string]bool
}

// peerCacheCap bounds each warm cache; exceeding it clears the cache (the
// next job rebuilds — correctness never depends on a warm hit).
const peerCacheCap = 8

// graphFor returns the job's graph: the full build for sweep jobs (chunks
// run from any source), this peer's CSR shard when the family shards, and
// the full build — with a logged reason — when it does not.
func (ps *peerState) graphFor(gs *spec.GraphSpec, self, peers int, kind spec.Kind) (*graph.Graph, error) {
	key := gs.Key() + "|full"
	build := gs.Build
	if kind != spec.KindSweep {
		sh, err := gs.Sharder()
		if err != nil {
			return nil, err
		}
		if sh == nil {
			if fam := gs.Normalized().Family; !ps.warned[fam] {
				ps.warned[fam] = true
				log.Printf("cluster: peer %d: graph family %q has no sharded builder; building the full graph", self, fam)
			}
		} else {
			key = fmt.Sprintf("%s|shard=%d/%d", gs.Key(), self, peers)
			build = func() (*graph.Graph, error) { return graph.BuildShard(*sh, self, peers) }
		}
	}
	if g := ps.graphs[key]; g != nil {
		return g, nil
	}
	g, err := build()
	if err != nil {
		return nil, err
	}
	if len(ps.graphs) >= peerCacheCap {
		ps.graphs = map[string]*graph.Graph{}
	}
	ps.graphs[key] = g
	return g, nil
}

// sweepPoolFor returns the warm sweep pool for (graph, task), building it
// like the service's sweep runner does. The cache key is the pool's config
// (core.PoolKey), so every chunk and every repeat sweep of one spec hits
// the same pool, whatever its source selection or deadline.
func (ps *peerState) sweepPoolFor(graphKey string, g *graph.Graph, t spec.TaskSpec) (*core.SweepPool, error) {
	cfg, err := core.TaskConfig(t)
	if err != nil {
		return nil, err
	}
	key := graphKey + "|" + core.PoolKey(cfg, t.SweepWorkers)
	if p := ps.pools[key]; p != nil {
		return p, nil
	}
	p, err := core.NewSweepPool(g, cfg, t.SweepWorkers)
	if err != nil {
		return nil, err
	}
	if len(ps.pools) >= peerCacheCap {
		ps.pools = map[string]*core.SweepPool{}
	}
	ps.pools[key] = p
	return p, nil
}

// runJob executes one prepare→result→done (or prepare→chunks→done) cycle.
// The returned error is a control-transport failure (the peer cannot
// continue); job-local failures — bad spec, mesh trouble, engine errors, an
// abort — are reported to the coordinator in the ready, result, or chunkres
// message and leave the peer serving.
func runJob(conn net.Conn, enc *json.Encoder, rd *ctrlReader, ps *peerState, m *ctrlMsg) error {
	self, peers := m.Peer, m.Peers
	sweepJob := m.Task != nil && m.Task.Kind == spec.KindSweep

	// Validate and stand up the job-scoped mesh listener; a failure still
	// answers ready (with Err) so the coordinator's handshake never stalls.
	var g *graph.Graph
	var jobErr error
	switch {
	case m.Graph == nil || m.Task == nil:
		jobErr = errors.New("cluster: prepare carried no graph or task")
	case self < 0 || self >= peers:
		jobErr = fmt.Errorf("cluster: prepare names peer %d of %d", self, peers)
	default:
		if jobErr = validateJob(m.Task, peers); jobErr == nil {
			g, jobErr = ps.graphFor(m.Graph, self, peers, m.Task.Kind)
		}
	}
	var ln net.Listener
	mesh := ""
	if jobErr == nil && !sweepJob {
		// Listen on the interface the coordinator reached us through, so
		// the advertised address is dialable by the other peers.
		host := "127.0.0.1"
		if ta, ok := conn.LocalAddr().(*net.TCPAddr); ok {
			host = ta.IP.String()
		}
		if ln, jobErr = net.Listen("tcp", net.JoinHostPort(host, "0")); jobErr == nil {
			defer ln.Close()
			mesh = ln.Addr().String()
		}
	}
	var resident int64
	if g != nil {
		resident = g.ResidentBytes()
	}
	if err := enc.Encode(ctrlMsg{Type: msgReady, Peer: self, Mesh: mesh, Resident: resident, Err: errString(jobErr)}); err != nil {
		return fmt.Errorf("cluster: send ready: %w", err)
	}

	var sm ctrlMsg
	if err := rd.next(&sm); err != nil {
		return fmt.Errorf("cluster: await start: %w", err)
	}
	switch sm.Type {
	case msgAbort:
		return nil // another peer's prepare failed; back to idle
	case msgStart:
	default:
		return fmt.Errorf("cluster: unexpected control message %q awaiting start", sm.Type)
	}
	if sweepJob {
		var pool *core.SweepPool
		if jobErr == nil {
			pool, jobErr = ps.sweepPoolFor(m.Graph.Key(), g, *m.Task)
		}
		return serveSweep(enc, rd, pool, jobErr)
	}
	// The coordinator sends one more message: done once every peer's
	// result is in, or abort, possibly mid-run. The watcher reads it and
	// cancels the job either way, which closes the mesh: under the running
	// engine on abort, so its next Exchange fails; after done, only when no
	// peer can still be reading our final frames.
	job, cancel := context.WithCancel(context.Background())
	defer cancel()
	term := make(chan error, 1)
	go func() {
		var m ctrlMsg
		err := rd.next(&m)
		cancel()
		switch {
		case errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed):
			// The coordinator shut down after our result: Serve's next
			// read meets the same end and exits cleanly.
			err = nil
		case err != nil:
			err = fmt.Errorf("cluster: await done: %w", err)
		case m.Type != msgDone && m.Type != msgAbort:
			err = fmt.Errorf("cluster: unexpected control message %q mid-run", m.Type)
		}
		term <- err
	}()

	// A failure before the engine starts answers abort, not result: no
	// frame will carry it to the other peers, so the coordinator must.
	res := ctrlMsg{Type: msgResult, Peer: self}
	if jobErr != nil {
		// A coordinator bug: it started a job we reported unready. Answer
		// with the error rather than meshing.
		res.Type, res.Err = msgAbort, jobErr.Error()
	} else if links, err := setupMesh(job, self, sm.Addrs, ln); err != nil {
		res.Type, res.Err = msgAbort, err.Error()
	} else {
		ex := newMeshExchanger(self, links)
		context.AfterFunc(job, ex.Close)
		out, stats, auth, runErr := runClusterTask(g, *m.Task, &congest.ClusterConfig{Peer: self, Peers: peers, Exchange: ex})
		res.Stats = stats
		res.Authoritative = auth
		res.WaitNs = ex.waitNs
		if runErr != nil {
			res.Err = runErr.Error()
		} else if auth {
			b, err := json.Marshal(out)
			if err != nil {
				res.Err = fmt.Sprintf("cluster: encode result: %v", err)
			} else {
				res.Result = b
			}
		}
	}
	if err := enc.Encode(&res); err != nil {
		return fmt.Errorf("cluster: send result: %w", err)
	}
	return <-term
}

// runClusterTask runs the task as this peer's shard: the config the
// in-process service runners build (core.TaskConfig), plus the cluster
// config. authoritative reports whether this peer owns the source vertex —
// its result carries the answer; the other peers contribute engine
// statistics.
func runClusterTask(g *graph.Graph, t spec.TaskSpec, cl *congest.ClusterConfig) (out any, stats *congest.Stats, authoritative bool, err error) {
	cfg, err := core.TaskConfig(t)
	if err != nil {
		return nil, nil, false, err
	}
	cfg.Engine.Cluster = cl
	lo, hi := graph.ShardRange(g.N(), cl.Peer, cl.Peers)
	authoritative = t.Source >= lo && t.Source < hi
	switch t.Kind {
	case spec.KindWalk:
		var r *core.TokenWalkResult
		r, err = core.TokenWalk(g, t.Source, t.Steps, func(c *core.Config) { *c = cfg })
		if r != nil {
			out, stats = r, r.Stats
		}
	case spec.KindMixing, spec.KindLocal:
		var r *core.Result
		r, err = core.Run(g, cfg)
		if r != nil {
			out, stats = r, r.Stats
		}
	default:
		err = fmt.Errorf("cluster: kind %s does not distribute", t.Kind)
	}
	return out, stats, authoritative, err
}
