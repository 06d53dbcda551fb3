package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/service"
	"repro/internal/spec"
)

// clusterClasses is the cluster cycle: 13 jobs whose latencies sort so that
// the six local-rc816 jobs hold the median.
var clusterClasses = []classWeight{
	{clsLocal816, 6}, {clsWalk, 2}, {clsSweep, 3}, {clsLocal48, 1}, {clsMixing, 1},
}

const (
	clusterPeers      = 2
	clusterCheckEvery = 4 // every 4th job is checked against the in-process run
)

// clusterSys is a running coordinator with its peers.
type clusterSys struct {
	procs  []*proc // coordinator first
	base   string
	client *http.Client
}

func (s *clusterSys) stop() {
	s.client.CloseIdleConnections()
	stopAll(s.procs)
}

// withCluster routes req to the attached peer cluster.
func withCluster(req service.Request) service.Request {
	req.Task.Cluster = &spec.ClusterSpec{}
	return req
}

// startCluster starts a coordinator and its peers and warms them: peers
// registered, one job of each class run. It also returns how long the peers
// took to register.
func startCluster(ctx context.Context, c runCfg, rng *rand.Rand) (*clusterSys, time.Duration, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	coordAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s := &clusterSys{base: "http://" + httpAddr, client: newClient(1)}
	coord, err := startProc("lmtd coordinator", c.lmtd, "-addr", httpAddr, "-cluster", coordAddr)
	if err != nil {
		return nil, 0, err
	}
	s.procs = append(s.procs, coord)
	fail := func(err error) (*clusterSys, time.Duration, error) {
		s.stop()
		return nil, 0, err
	}
	if err := waitFor(10*time.Second, "coordinator /healthz", func() bool { return httpOK(s.client, s.base+"/healthz") }); err != nil {
		return fail(fmt.Errorf("%w; log: %s", err, coord.logs))
	}
	peersStart := time.Now()
	for i := 0; i < clusterPeers; i++ {
		p, err := startProc("lmtd peer", c.lmtd, "-peer", coordAddr)
		if err != nil {
			return fail(err)
		}
		s.procs = append(s.procs, p)
	}
	registered := func() bool {
		m, err := scrape(ctx, s.client, s.base+"/metrics")
		return err == nil && m["lmtd_cluster_peers"] >= clusterPeers
	}
	if err := waitFor(20*time.Second, "peer registration", registered); err != nil {
		return fail(err)
	}
	register := time.Since(peersStart)
	for _, cw := range clusterClasses {
		if _, err := runRequest(ctx, s.client, s.base, withCluster(request(cw.class, newSeed(rng), rng))); err != nil {
			return fail(fmt.Errorf("cluster set-up %s: %w", cw.class, err))
		}
	}
	return s, register, nil
}

// wireStats is the part of congest.Stats the cluster workload reads from
// the JSON answer.
type wireStats struct {
	Rounds     int
	Messages   int64
	WireBytes  int64
	FramesSent int64
	FramesRecv int64
}

// clusterJob is one completed cluster job.
type clusterJob struct {
	cls    string
	req    service.Request
	result []byte
	at     time.Duration // completion, as an offset into the window
	lat    time.Duration
	stats  *wireStats // nil for sweeps
}

func runCluster(ctx context.Context, c runCfg) (*outcome, error) {
	setupRng := rand.New(rand.NewSource(c.seed ^ 0xc1))
	var (
		sys       *clusterSys
		loop      loopStats
		registers []float64
	)
	for i := 0; i < c.setups; i++ {
		if sys != nil {
			sys.stop()
		}
		var reg time.Duration
		st, err := timeSetup(func() (err error) {
			sys, reg, err = startCluster(ctx, c, setupRng)
			return err
		})
		if err != nil {
			return nil, err
		}
		loop.setups = append(loop.setups, st)
		registers = append(registers, reg.Seconds()*1e3)
	}
	defer sys.stop()

	cpu := func() (time.Duration, error) {
		var total time.Duration
		for _, p := range sys.procs {
			d, err := procCPU(p.pid())
			if err != nil {
				return 0, err
			}
			total += d
		}
		return total, nil
	}
	seq := newSequence(c.seed, clusterClasses)
	o := &outcome{}
	var (
		jobs               []clusterJob
		before, mid, after map[string]float64
		firstSweeps        int
		first              []clusterJob
	)
	if c.tr != nil {
		before, _ = scrape(ctx, sys.client, sys.base+"/metrics") // a failed scrape shows up as absent counters
	}
	cpu0, err := cpu()
	if err != nil {
		return nil, err
	}
	var pids []string
	for _, p := range sys.procs {
		pids = append(pids, fmt.Sprint(p.pid()))
	}
	start := time.Now()
	meter := startSteal(start, pids, nil)
	// The first cycle always completes: the deterministic per-job counts of
	// traced runs are taken over it.
	for (time.Since(start) < c.window || seq.next < len(seq.cycle)) && ctx.Err() == nil {
		cls, req := seq.job()
		id := int64(seq.next)
		body, err := json.Marshal(withCluster(req))
		if err != nil {
			return nil, err
		}
		root := c.tr.begin("job "+cls, 0, id)
		sp := c.tr.begin("client.POST /v1/run cluster", root.id, id)
		t0 := time.Now()
		status, resp, err := post(ctx, sys.client, sys.base+"/v1/run", body)
		lat := time.Since(t0)
		sp.end()
		root.end()
		o.attempted++
		var res []byte
		switch {
		case err != nil:
		case status != http.StatusOK:
			err = fmt.Errorf("status %d: %s", status, resp)
		default:
			res, err = resultOf(resp)
		}
		var parsed struct{ Stats *wireStats }
		if err == nil {
			err = json.Unmarshal(res, &parsed)
		}
		if err != nil {
			o.failed++
			if o.failed <= 5 {
				fmt.Printf("cluster: job %d (%s) failed: %v\n", id, cls, err)
			}
			continue
		}
		j := clusterJob{cls: cls, req: req, at: time.Since(start), lat: lat, stats: parsed.Stats}
		if id%clusterCheckEvery == 0 || int(id) <= len(seq.cycle) {
			j.result = res
		}
		jobs = append(jobs, j)
		if int(id) <= len(seq.cycle) {
			first = append(first, j)
			if cls == clsSweep {
				firstSweeps++
			}
			if int(id) == len(seq.cycle) && c.tr != nil {
				mid, _ = scrape(ctx, sys.client, sys.base+"/metrics")
			}
		}
	}
	loop.elapsed = time.Since(start)
	loop.steal = meter.finish(start, c.window)
	loop.sliceHWM = meter.sliceHWM()
	cpu1, err := cpu()
	if err != nil {
		return nil, err
	}
	loop.cpu = cpu1 - cpu0
	for _, p := range sys.procs {
		hwm, err := procHWM(fmt.Sprint(p.pid()))
		if err != nil {
			return nil, err
		}
		loop.hwm += hwm
		if !p.alive() {
			return nil, fmt.Errorf("%s exited during the run; log: %s", p.name, p.logs)
		}
	}
	if c.tr != nil {
		after, _ = scrape(ctx, sys.client, sys.base+"/metrics")
	}

	// The cluster determinism contract: sampled answers equal the in-process
	// run of the same request, with Stats masked.
	ref := service.New(service.Options{})
	var inprocTime, clusterTime time.Duration
	var inprocRounds int
	for _, j := range jobs {
		ok := true
		if j.result != nil {
			sp := c.tr.begin("service.Run", 0, 0)
			want, err := reference(ref, j.req)
			d := sp.end()
			if ok = err == nil && sameResult(j.result, want); !ok {
				o.failed++
				fmt.Printf("cluster: %s answer differs from the in-process run (err=%v)\n", j.cls, err)
			} else if j.stats != nil {
				inprocTime += d
				clusterTime += j.lat
				inprocRounds += j.stats.Rounds
			}
		}
		loop.samples = append(loop.samples, sample{at: j.at, lat: j.lat, good: ok})
	}
	o.loop = loop
	if c.tr == nil {
		return o, nil
	}

	m := metrics{}
	var all, firstT wireStats
	var engineTime time.Duration
	var firstEngine int
	for _, j := range jobs {
		if j.stats != nil {
			all.add(j.stats)
			engineTime += j.lat
		}
	}
	for _, j := range first {
		if j.stats != nil {
			firstT.add(j.stats)
			firstEngine++
		}
	}
	perRound := func(x float64) float64 { return ratio(x, float64(firstT.Rounds)) }
	roundUS := ratio(engineTime.Seconds()*1e6, float64(all.Rounds))
	m.set("cluster.round_us", "us", roundUS)
	m.set("cluster.transport_us_per_round", "us",
		ratio(clusterTime.Seconds()*1e6, float64(inprocRounds))-ratio(inprocTime.Seconds()*1e6, float64(inprocRounds)))
	m.set("cluster.rounds_per_job", "count", ratio(float64(firstT.Rounds), float64(firstEngine)))
	m.set("cluster.wire_bytes_per_round", "bytes", perRound(float64(firstT.WireBytes)))
	m.set("cluster.frames_per_round", "count", perRound(float64(firstT.FramesSent)))
	m.set("cluster.register_ms", "ms", median(registers))

	counter := func(name string, from, to map[string]float64) (float64, bool) {
		a, ok1 := from[name]
		b, ok2 := to[name]
		return b - a, ok1 && ok2
	}
	if v, ok := counter("lmtd_cluster_round_wait_ns_total", before, after); ok {
		m.set("cluster.wait_share", "ratio", ratio(v, clusterPeers*float64(engineTime.Nanoseconds())))
	} else {
		o.markAbsent("cluster.wait_share", "lmtd_cluster_round_wait_ns_total not exported")
	}
	if v, ok := counter("lmtd_cluster_sync_batches_total", before, mid); ok {
		m.set("cluster.syncs_per_round", "count", perRound(v))
	} else {
		o.markAbsent("cluster.syncs_per_round", "lmtd_cluster_sync_batches_total not exported")
	}
	if v, ok := counter("lmtd_cluster_sweep_chunks_total", before, mid); ok {
		m.set("cluster.sweep_chunks_per_job", "count", ratio(v, float64(firstSweeps)))
	} else {
		o.markAbsent("cluster.sweep_chunks_per_job", "lmtd_cluster_sweep_chunks_total not exported")
	}
	if v, ok := mid["lmtd_cluster_peer_resident_graph_bytes"]; ok { // left by the first cycle's last job
		m.set("cluster.peer_resident_mb", "MiB", v/(1<<20))
	} else {
		o.markAbsent("cluster.peer_resident_mb", "lmtd_cluster_peer_resident_graph_bytes not exported")
	}
	// Frames shaped like the workload's mean frame.
	frameBytes := ratio(float64(all.WireBytes), float64(all.FramesSent+all.FramesRecv))
	enc, dec := frameThroughput(int((frameBytes-20)/34), 100*time.Millisecond)
	m.set("frame.encode_mb_per_s", "MB/s", enc)
	m.set("frame.decode_mb_per_s", "MB/s", dec)
	o.layers = m
	return o, nil
}

func (w *wireStats) add(x *wireStats) {
	w.Rounds += x.Rounds
	w.Messages += x.Messages
	w.WireBytes += x.WireBytes
	w.FramesSent += x.FramesSent
	w.FramesRecv += x.FramesRecv
}
