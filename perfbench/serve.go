package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/spec"
)

// The serve workload: one client process sends an open loop at a fixed
// offered rate, well below capacity, over at most serveConns connections.
const (
	serveRate       = 360                    // offered requests per second
	serveConns      = 2                      // client connections (the reference host has 2 vCPUs)
	serveLimit      = 50 * time.Millisecond  // latency limit on tail_ms; slower requests are not goodput
	serveTimeout    = 10 * time.Second       // a request still unanswered after this has failed
	serveCheckEvery = 4                      // every 4th non-hot request is checked in-process
	serveSpin       = 300 * time.Microsecond // a connection spins, not sleeps, for the last stretch before a due time
)

// The request mix: mostly a hot set that fits the 256-entry result cache;
// fresh-seed computations on warm graphs that insert into the result cache
// and evict from it; a few batches and fresh-graph requests.
const (
	shareHot   = 0.80
	shareFresh = 0.15
	shareBatch = 0.03 // the remaining 0.02 are fresh-graph requests
)

var serveHotClasses = []classWeight{
	{clsLocal816, 16}, {clsSpread, 8}, {clsOracleLoc, 8}, {clsEstimate, 8},
	{clsMixing, 4}, {clsOracleMix, 4}, {clsWalk, 4},
}

var serveFreshClasses = []string{clsLocal816, clsSpread, clsOracleLoc, clsEstimate}

// serveOp is one scheduled request.
type serveOp struct {
	kind  string // hot, fresh, batch or graph
	hot   int    // index into the hot set (hot requests only)
	path  string
	body  []byte
	reqs  []service.Request // what the request asks, for the in-process check
	check bool
	due   time.Duration // offset from the window start
}

// serveRes is what the client saw for one op.
type serveRes struct {
	sent, end time.Duration // offsets from the window start
	size      int
	body      []byte // kept for checked responses and hot responses that differ from their first
	fail      string // why the op failed ("" = it did not)
}

// serveSchedule builds the hot set and the window's requests from seed.
func serveSchedule(seed int64, window time.Duration) (hot, ops []serveOp, warm []serveOp) {
	rng := rand.New(rand.NewSource(seed))
	for _, cw := range serveHotClasses {
		for i := 0; i < cw.n; i++ {
			hot = append(hot, runOp("hot", request(cw.class, newSeed(rng), rng)))
			hot[len(hot)-1].hot = len(hot) - 1
		}
	}
	var hotLocal []spec.TaskSpec
	for _, h := range hot {
		if h.reqs[0].Graph == gRing816 && h.reqs[0].Task.Kind == spec.KindLocal {
			hotLocal = append(hotLocal, h.reqs[0].Task)
		}
	}
	next := func(kind string) serveOp {
		switch kind {
		case "fresh":
			return runOp(kind, request(serveFreshClasses[rng.Intn(len(serveFreshClasses))], newSeed(rng), rng))
		case "batch":
			// Two hot tasks and six fresh ones: at about 8 ms the batches are
			// the slowest class, so the tail percentile falls inside their
			// latencies instead of on stray preemptions of short requests.
			tasks := []spec.TaskSpec{hotLocal[rng.Intn(len(hotLocal))], hotLocal[rng.Intn(len(hotLocal))]}
			for len(tasks) < 8 {
				tasks = append(tasks, request(clsLocal816, newSeed(rng), rng).Task)
			}
			return batchOp(gRing816, tasks)
		default:
			return runOp(kind, request(clsFreshGraph, newSeed(rng), rng))
		}
	}
	n := int(serveRate * window.Seconds())
	interval := time.Second / serveRate
	var due time.Duration
	checked := 0
	for i := 0; i < n; i++ {
		due += time.Duration(float64(interval) * (0.5 + rng.Float64()))
		var op serveOp
		switch u := rng.Float64(); {
		case u < shareHot:
			op = hot[rng.Intn(len(hot))]
		case u < shareHot+shareFresh:
			op = next("fresh")
		case u < shareHot+shareFresh+shareBatch:
			op = next("batch")
		default:
			op = next("graph")
		}
		if op.kind != "hot" {
			op.check = checked%serveCheckEvery == 0
			checked++
		}
		op.due = due
		ops = append(ops, op)
	}
	// Set-up warms the hot set and runs one request of every other class.
	warm = append(warm, hot...)
	for _, cls := range serveFreshClasses {
		warm = append(warm, runOp("fresh", request(cls, newSeed(rng), rng)))
	}
	warm = append(warm, next("batch"), next("graph"))
	return hot, ops, warm
}

func runOp(kind string, req service.Request) serveOp {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // service.Request always marshals
	}
	return serveOp{kind: kind, hot: -1, path: "/v1/run", body: b, reqs: []service.Request{req}}
}

func batchOp(gs spec.GraphSpec, tasks []spec.TaskSpec) serveOp {
	b, err := json.Marshal(map[string]any{"graph": gs, "tasks": tasks})
	if err != nil {
		panic(err)
	}
	reqs := make([]service.Request, len(tasks))
	for i, t := range tasks {
		reqs[i] = service.Request{Graph: gs, Task: t}
	}
	return serveOp{kind: "batch", hot: -1, path: "/v1/batch", body: b, reqs: reqs}
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Timeout: serveTimeout, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
}

// startServe starts lmtd and warms it: listening, warm graphs
// built, the hot set computed and cached, one request of every class run.
func startServe(ctx context.Context, c runCfg, warm []serveOp) (*proc, string, *http.Client, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, "", nil, err
	}
	base := "http://" + addr
	client := newClient(serveConns)
	p, err := startProc("lmtd", c.lmtd, "-addr", addr)
	if err != nil {
		return nil, "", nil, err
	}
	if err := waitFor(10*time.Second, "lmtd /healthz", func() bool { return httpOK(client, base+"/healthz") }); err != nil {
		p.stop()
		return nil, "", nil, fmt.Errorf("%w; lmtd log: %s", err, p.logs)
	}
	for _, op := range warm {
		status, body, err := post(ctx, client, base+op.path, op.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		if err != nil {
			p.stop()
			return nil, "", nil, fmt.Errorf("serve set-up request %s: %w", op.body, err)
		}
	}
	return p, base, client, nil
}

func runServe(ctx context.Context, c runCfg) (*outcome, error) {
	hot, ops, warm := serveSchedule(c.seed, c.window)
	var (
		lm     *proc
		base   string
		client *http.Client
		loop   loopStats
	)
	for i := 0; i < c.setups; i++ {
		if lm != nil {
			client.CloseIdleConnections()
			lm.stop()
		}
		st, err := timeSetup(func() (err error) {
			lm, base, client, err = startServe(ctx, c, warm)
			return err
		})
		if err != nil {
			return nil, err
		}
		loop.setups = append(loop.setups, st)
	}
	defer lm.stop()
	defer client.CloseIdleConnections()

	var before map[string]float64
	if c.tr != nil {
		before, _ = scrape(ctx, client, base+"/metrics") // absent counters are reported as absent
	}
	cpu0, err := procCPU(lm.pid())
	if err != nil {
		return nil, err
	}
	res, late, hotFirst, err := serveWindow(ctx, strings.TrimPrefix(base, "http://"), fmt.Sprint(lm.pid()), ops, len(hot), c.tr, &loop)
	if err != nil {
		return nil, err
	}
	cpu1, err := procCPU(lm.pid())
	if err != nil {
		return nil, err
	}
	if loop.hwm, err = procHWM(fmt.Sprint(lm.pid())); err != nil {
		return nil, err
	}
	var after map[string]float64
	if c.tr != nil {
		after, _ = scrape(ctx, client, base+"/metrics")
	}
	if !lm.alive() {
		return nil, fmt.Errorf("lmtd exited during the run; log: %s", lm.logs)
	}
	loop.cpu = cpu1 - cpu0

	// Check outputs against an in-process service.Run of the same request.
	ref := service.New(service.Options{})
	refTimes := checkServe(ref, hot, ops, res, hotFirst, c.tr)

	o := &outcome{attempted: len(ops), openLoop: true}
	for i, r := range res {
		if r.fail != "" {
			o.failed++
			if o.failed <= 5 {
				fmt.Printf("serve: request %d (%s) failed: %s\n", i, ops[i].kind, r.fail)
			}
			continue
		}
		lat := r.end - ops[i].due
		loop.samples = append(loop.samples, sample{at: ops[i].due, lat: lat, good: lat <= serveLimit})
		loop.elapsed = max(loop.elapsed, r.end)
	}
	o.loop = loop
	if c.tr != nil {
		serveLayers(ctx, o, ref, hot, ops, res, late, refTimes, before, after, c.tr)
	}
	return o, nil
}

// serveWindow sends the ops on schedule and returns what the client saw,
// how late the generator sent each op and the first body of each hot key.
// It records the stolen time, lmtd's (pid's) peak resident set and the
// probe's round trip in l.
func serveWindow(ctx context.Context, addr, pid string, ops []serveOp, nHot int, tr *Tracer, l *loopStats) ([]serveRes, []time.Duration, [][]byte, error) {
	probe, err := startRTProbe()
	if err != nil {
		return nil, nil, nil, err
	}
	defer probe.close()
	conns := make([]*rawConn, serveConns)
	for w := range conns {
		c, err := dialRaw(addr)
		if err != nil {
			for _, c := range conns[:w] {
				c.Close()
			}
			return nil, nil, nil, err
		}
		conns[w] = c
	}
	res := make([]serveRes, len(ops))
	late := make([]time.Duration, len(ops))
	var mu sync.Mutex
	hotFirst := make([][]byte, nHot)
	var next atomic.Int64 // the next op a free connection takes, in due order
	start := time.Now().Add(20 * time.Millisecond)
	meter := startSteal(start, []string{pid}, probe)
	var wg sync.WaitGroup
	for w := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conns[w].Close()
			// Each connection takes the next op as soon as it is free and
			// sleeps until the op is due, with nanosleep on a thread of its
			// own: Go timers wake up to a millisecond late on Linux, and a
			// hand-off from a separate generator goroutine would add one more
			// wake-up to every latency measured from the due time. nanosleep
			// itself wakes about 0.1 ms late, by as much as the host is busy,
			// so it stops serveSpin early and the connection spins the rest.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				op, r := &ops[i], &res[i]
				due := start.Add(op.due)
				if time.Until(due) > 0 {
					for d := time.Until(due) - serveSpin; d > 0; d = time.Until(due) - serveSpin {
						ts := syscall.NsecToTimespec(int64(d))
						_ = syscall.Nanosleep(&ts, nil) // EINTR (runtime preemption signals): sleep the rest
					}
					for time.Until(due) > 0 { // spin
					}
					late[i] = time.Since(due) // the generator's own lateness; queueing behind busy connections is not counted here
				}
				sp := tr.begin("client.POST "+op.path+" "+op.kind, 0, int64(i+1))
				r.sent = time.Since(start)
				status, body, err := conns[w].post(op.path, op.body)
				sp.end()
				r.end = time.Since(start)
				r.size = len(body)
				switch {
				case err != nil:
					r.fail = err.Error()
				case status != http.StatusOK:
					r.fail = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
				case op.kind == "hot":
					mu.Lock()
					if hotFirst[op.hot] == nil {
						hotFirst[op.hot] = body
					} else if !bytes.Equal(hotFirst[op.hot], body) {
						r.body = body // checked in-process after the window
					}
					mu.Unlock()
				case op.kind == "batch":
					if _, err := batchResults(body); err != nil {
						r.fail = err.Error()
					} else if op.check {
						r.body = body
					}
				case op.check:
					r.body = body
				}
			}
		}()
	}
	wg.Wait()
	l.steal = meter.finish(start, ops[len(ops)-1].due)
	l.rttUS = meter.rttUS()
	l.sliceHWM = meter.sliceHWM()
	for i := range res {
		if res[i].end == 0 && res[i].fail == "" {
			res[i].fail = "not sent: " + fmt.Sprint(ctx.Err())
		}
	}
	return res, late, hotFirst, nil
}

// checkServe compares every hot key's answer and a deterministic sample of
// the other answers with an in-process service.Run of the same request,
// marking mismatches as failures. It returns the in-process run times of
// the sampled (cache-missing) requests.
func checkServe(ref *service.Service, hot, ops []serveOp, res []serveRes, hotFirst [][]byte, tr *Tracer) []time.Duration {
	refOf := func(req service.Request) ([]byte, time.Duration, error) {
		sp := tr.begin("service.Run", 0, 0)
		b, err := reference(ref, req)
		return b, sp.end(), err
	}
	hotRef := make([][]byte, len(hot))
	hotBad := make([]string, len(hot))
	for k := range hot {
		b, _, err := refOf(hot[k].reqs[0])
		if err != nil {
			hotBad[k] = "in-process reference failed: " + err.Error()
			continue
		}
		hotRef[k] = b
		if hotFirst[k] == nil {
			continue // never requested in the window
		}
		if got, err := resultOf(hotFirst[k]); err != nil || !sameResult(got, b) {
			hotBad[k] = "hot answer differs from the in-process run"
		}
	}
	var missTimes []time.Duration
	for i := range ops {
		op, r := &ops[i], &res[i]
		if r.fail != "" {
			continue
		}
		switch {
		case op.kind == "hot":
			if hotBad[op.hot] != "" {
				r.fail = hotBad[op.hot]
			} else if r.body != nil {
				if got, err := resultOf(r.body); err != nil || !sameResult(got, hotRef[op.hot]) {
					r.fail = "hot answer differs from the in-process run"
				}
			}
		case op.check:
			var got [][]byte
			if op.kind == "batch" {
				got, _ = batchResults(r.body) // validated in the window
			} else if b, err := resultOf(r.body); err == nil {
				got = [][]byte{b}
			}
			if len(got) != len(op.reqs) {
				r.fail = "malformed response"
				continue
			}
			for j, req := range op.reqs {
				want, d, err := refOf(req)
				if err != nil {
					r.fail = "in-process reference failed: " + err.Error()
					break
				}
				if op.kind != "batch" {
					missTimes = append(missTimes, d)
				}
				if !sameResult(got[j], want) {
					r.fail = fmt.Sprintf("answer %d differs from the in-process run", j)
					break
				}
			}
			r.body = nil
		}
	}
	return missTimes
}

// serveLayers derives the per-layer metrics of a traced serve run.
func serveLayers(ctx context.Context, o *outcome, ref *service.Service, hot, ops []serveOp, res []serveRes, late, missTimes []time.Duration,
	before, after map[string]float64, tr *Tracer) {
	m := metrics{}
	o.layers = m
	lateMS := durationsMS(late)
	m.set("loadgen.late_ms", "ms", quantile(lateMS, 0.99))

	var hitRT, missRT []float64
	var bytesTotal float64
	for i, r := range res {
		bytesTotal += float64(r.size)
		rt := (r.end - r.sent).Seconds()
		switch ops[i].kind {
		case "hot":
			hitRT = append(hitRT, rt*1e6)
		case "fresh":
			missRT = append(missRT, rt*1e3)
		}
	}
	m.set("lmtd.roundtrip_hit_us", "us", median(hitRT))
	m.set("lmtd.roundtrip_miss_ms", "ms", median(missRT))
	m.set("lmtd.response_bytes", "bytes", ratio(bytesTotal, float64(len(res))))

	// service.Run on the hit path, in-process: the reference service holds
	// every hot answer by now.
	var hitUS []float64
	for rep := 0; rep < 20; rep++ {
		for _, h := range hot {
			sp := tr.begin("service.Run hit", 0, 0)
			if _, err := ref.Run(ctx, h.reqs[0]); err != nil {
				continue
			}
			hitUS = append(hitUS, sp.end().Seconds()*1e6)
		}
	}
	hit := median(hitUS)
	m.set("service.run_hit_us", "us", hit)
	m.set("lmtd.http_overhead_us", "us", median(hitRT)-hit)
	miss := make([]float64, len(missTimes))
	for i, d := range missTimes {
		miss[i] = d.Seconds() * 1e3
	}
	m.set("service.run_miss_ms", "ms", median(miss))

	const keyReps = 200
	sp := tr.begin("spec keys", 0, 0)
	for rep := 0; rep < keyReps; rep++ {
		for _, h := range hot {
			_ = h.reqs[0].Graph.Key() + h.reqs[0].Task.Key()
		}
	}
	m.set("spec.key_us", "us", sp.end().Seconds()*1e6/float64(keyReps*len(hot)))

	// Counters read from /metrics by name; a missing one is reported absent.
	counters := func(metric string, names ...string) ([]float64, bool) {
		out := make([]float64, len(names))
		for i, n := range names {
			a, ok1 := before[n]
			b, ok2 := after[n]
			if !ok1 || !ok2 {
				o.markAbsent(metric, n+" not exported")
				return nil, false
			}
			out[i] = b - a
		}
		return out, true
	}
	if v, ok := counters("service.result_hit_ratio", "lmtd_result_cache_hits_total", "lmtd_result_cache_misses_total"); ok {
		m.set("service.result_hit_ratio", "ratio", ratio(v[0], v[0]+v[1]))
	}
	if v, ok := counters("service.result_evictions_per_1k", "lmtd_result_cache_evictions_total", "lmtd_requests_total"); ok {
		m.set("service.result_evictions_per_1k", "count", 1000*ratio(v[0], v[1]))
	}
	if v, ok := counters("service.graph_miss_ratio", "lmtd_graph_cache_hits_total", "lmtd_graph_cache_misses_total"); ok {
		m.set("service.graph_miss_ratio", "ratio", ratio(v[1], v[0]+v[1]))
	}
	if v, ok := counters("service.singleflight_shared", "lmtd_singleflight_shared_total"); ok {
		m.set("service.singleflight_shared", "count", v[0])
	}
	if v, ok := after["lmtd_in_flight_peak"]; ok {
		m.set("service.in_flight_peak", "count", v)
	} else {
		o.markAbsent("service.in_flight_peak", "lmtd_in_flight_peak not exported")
	}

	buildMS, resident := buildGraphs([]spec.GraphSpec{gRing816, gBarbell, gTorus32, gRing48}, tr)
	m.set("graph.build_ms", "ms", buildMS)
	m.set("graph.resident_mb", "MiB", resident)
}

// buildGraphs builds each graph once, directly, and returns the summed
// build time in ms and the summed CSR size in MiB.
func buildGraphs(gss []spec.GraphSpec, tr *Tracer) (float64, float64) {
	var ms, bytes float64
	for _, gs := range gss {
		sp := tr.begin("GraphSpec.Build", 0, 0)
		g, err := gs.Build()
		d := sp.end()
		if err != nil {
			continue
		}
		ms += d.Seconds() * 1e3
		off, edges := g.CSR()
		bytes += float64(4 * (len(off) + len(edges)))
	}
	return ms, bytes / (1 << 20)
}
