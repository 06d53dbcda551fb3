// Command perfbench drives the repository from outside through three
// workloads and prints one JSON result line:
//
//	serve    open-loop HTTP against a real lmtd process
//	solve    one in-process caller running the distributed and oracle algorithms
//	cluster  distributed jobs through an lmtd -cluster coordinator and two lmtd -peer processes
//
// Usage (normally through run.sh, which builds lmtd and this binary first):
//
//	perfbench -lmtd path/to/lmtd -workload serve -seed 1 -seconds 25 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics, measured by spans the benchmark records
// around its calls into each layer and by counters the program exports. See
// README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runCfg is what a workload run gets.
type runCfg struct {
	seed   int64
	window time.Duration // how long the measured loop runs
	setups int           // set-ups to time; the median is reported
	lmtd   string        // lmtd binary
	tr     *Tracer       // nil: untraced
}

// loopStats is what a workload measured end to end.
type loopStats struct {
	samples []sample      // one per completed operation
	steal   []int64       // stolen CPU time per slice of the window (see calmSlices)
	elapsed time.Duration // measured window
	cpu     time.Duration // user+sys CPU of the system under test over the window
	hwm     int64         // peak resident bytes of the system under test
	// sliceHWM is the median over the window's slices of the peak
	// resident bytes in each; 0 where the peak cannot be reset per slice.
	sliceHWM int64
	rttUS    float64 // median probe round trip, us; 0: not probed (see rtprobe.go)
	setups   []setup
}

// setup is one timed set-up and the machine-wide ticks stolen during it.
type setup struct {
	d      time.Duration
	stolen int64
}

// timeSetup runs f and times it, with the ticks stolen meanwhile.
func timeSetup(f func() error) (setup, error) {
	s0, t0 := readSteal(), time.Now()
	err := f()
	return setup{d: time.Since(t0), stolen: readSteal() - s0}, err
}

// sample is one completed operation.
type sample struct {
	at   time.Duration // offset into the window that places the op in a slice
	lat  time.Duration
	good bool // checked-correct answer (and, for serve, within the latency limit)
}

// outcome is one workload run's result.
type outcome struct {
	attempted, failed int
	loop              loopStats
	layers            metrics // per-layer metrics (traced runs only)
	absent            map[string]string
	openLoop          bool // operations arrive on a schedule (serve)
}

// markAbsent records a per-layer metric the run could not measure, with the
// reason; it is reported as 0 with the reason printed.
func (o *outcome) markAbsent(name, reason string) {
	if o.absent == nil {
		o.absent = map[string]string{}
	}
	o.absent[name] = reason
}

// workload runs one workload.
type workload func(ctx context.Context, c runCfg) (*outcome, error)

var workloads = map[string]workload{
	"serve":   runServe,
	"solve":   runSolve,
	"cluster": runCluster,
}

// e2e computes the end-to-end metrics and a line with the raw figures
// behind them. Latency and goodput come from the operations of the calmer
// half of the window's slices (see calmSlices); CPU and memory from the
// whole run. Stolen time lands on long spans and on the operations a
// preemption hits, not on the median operation, which is short next to the
// host's scheduling quantum: so set-up time, closed-loop goodput and the
// tail are scaled by the share of the machine's CPU time the hypervisor
// left, and p50 is reported as measured, except that a run that probed the
// host's loopback round trip reports p50 at the reference round trip rtRefUS
// (see rtprobe.go and README.md).
func (o *outcome) e2e() (metrics, string) {
	l := o.loop
	calm := calmSlices(l.steal)
	var stolen int64
	for k := range calm {
		stolen += l.steal[k]
	}
	share := stealShare(stolen, time.Duration(len(calm))*sliceLen)
	var lat []time.Duration
	var busy time.Duration
	good := 0
	for _, s := range l.samples {
		if len(l.steal) > 0 && !calm[int(s.at/sliceLen)] {
			continue // outside the calm slices, or past the last whole one
		}
		lat = append(lat, s.lat)
		busy += s.lat
		if s.good {
			good++
		}
	}
	// An open loop completes what arrives: its goodput is per second of
	// the calm slices and does not scale with the machine. A closed loop
	// with one caller completes one job per latency: its goodput is per
	// (steal-adjusted) second spent in the calm jobs, which does not depend
	// on how jobs straddle slice edges.
	span, rawSpan := time.Duration(float64(busy)*(1-share)), busy
	if o.openLoop {
		span = time.Duration(len(calm)) * sliceLen
		rawSpan = span
	}
	if len(l.steal) == 0 { // a window shorter than one slice
		span, rawSpan = l.elapsed, l.elapsed
	}
	ms := durationsMS(lat)
	pct, tail, n := tailStat(ms)
	setups, raw := make([]float64, len(l.setups)), make([]float64, len(l.setups))
	for i, s := range l.setups {
		raw[i] = s.d.Seconds()
		setups[i] = raw[i] * (1 - stealShare(s.stolen, s.d))
	}
	p50 := quantile(ms, 0.5)
	rt := 1.0
	if l.rttUS > 0 {
		rt = rtRefUS / l.rttUS
	}
	m := metrics{}
	m.set("p50_ms", "ms", p50*rt)
	m.set("tail_ms", "ms", tail*(1-share))
	m.set("goodput_per_s", "1/s", ratio(float64(good), span.Seconds()))
	m.set("cpu_ms_per_job", "ms", ratio(l.cpu.Seconds()*1e3, float64(len(l.samples))))
	rss := l.sliceHWM
	if rss == 0 {
		rss = l.hwm
	}
	m.set("rss_mb", "MiB", float64(rss)/(1<<20))
	m.set("setup_s", "s", median(setups))
	return m, fmt.Sprintf("tail_ms is %s of %d samples (%d beyond it); latency and goodput from the %d calmest of %d slices, "+
		"steal share %.3f (stolen ticks per slice %v); probe round trip %.4g us (p50 scale %.4g); "+
		"rss_mb per slice %t; "+
		"unadjusted p50_ms %.4g, tail_ms %.4g, goodput_per_s %.4g, setup_s %.4g",
		fmtPct(pct), n, beyond(n, pct), len(calm), len(l.steal), share, l.steal, l.rttUS, rt, l.sliceHWM > 0,
		p50, tail, ratio(float64(good), rawSpan.Seconds()), median(raw))
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: serve, solve or cluster")
	seed := flag.Int64("seed", 1, "seed of the generated inputs (task seeds, job order, arrival times)")
	seconds := flag.Float64("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	lmtd := flag.String("lmtd", "", "path of the lmtd binary")
	out := flag.String("out", ".bench_build", "directory for span dumps of traced runs")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *trace == 1, *lmtd, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// traceSideWindow is how long a traced run also drives each other workload,
// so every per-layer metric is measured in every traced run.
const traceSideWindow = 3 * time.Second

func run(w io.Writer, name string, seed int64, seconds float64, traced bool, lmtd, out string) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want serve, solve or cluster)", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if lmtd == "" {
		return fmt.Errorf("-lmtd is required")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := runCfg{seed: seed, window: time.Duration(seconds * float64(time.Second)), setups: 5, lmtd: lmtd}
	if !traced {
		o, err := wl(ctx, c)
		if err != nil {
			return err
		}
		m, note := o.e2e()
		fmt.Fprintln(w, note)
		for name, v := range m {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				return fmt.Errorf("%s has no value: no operation completed in the calm slices", name)
			}
		}
		return printResult(w, result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m})
	}

	c.tr = newTracer()
	o, err := wl(ctx, c)
	if err != nil {
		return err
	}
	m, note := o.e2e()
	fmt.Fprintf(w, "traced %s end-to-end: %s; %s\n", name, fmtMetrics(m), note)
	attempted, failed := o.attempted, o.failed
	layers, absent := metrics{}, map[string]string{}
	names := make([]string, 0, len(workloads))
	for other := range workloads {
		names = append(names, other)
	}
	sort.Strings(names)
	for _, other := range names {
		if other == name {
			continue
		}
		side := c
		side.window, side.setups = min(traceSideWindow, c.window), 1
		so, err := workloads[other](ctx, side)
		if err != nil {
			return fmt.Errorf("traced side run of %s: %w", other, err)
		}
		attempted += so.attempted
		failed += so.failed
		merge(layers, absent, so)
	}
	merge(layers, absent, o) // the named workload's own measurements win
	spans := c.tr.Spans()
	printSummary(w, spans)
	path := filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
	if err := writeSpans(path, spans); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
	} else {
		fmt.Fprintf(w, "%d spans written to %s\n", len(spans), path)
	}
	final := metrics{}
	for _, l := range perLayer {
		v, ok := layers[l.name]
		if ok && (math.IsNaN(v.Value) || math.IsInf(v.Value, 0)) {
			ok = false
			absent[l.name] = "no samples in this run"
		}
		if !ok {
			if _, noted := absent[l.name]; !noted {
				absent[l.name] = "not measured by this run"
			}
			v = metric{Unit: l.unit}
		}
		if v.Unit != l.unit {
			return fmt.Errorf("per-layer metric %s measured in %s, declared in %s", l.name, v.Unit, l.unit)
		}
		final[l.name] = v
	}
	for _, n := range sortedKeys(absent) {
		fmt.Fprintf(w, "absent: %s (reported as 0): %s\n", n, absent[n])
	}
	return printResult(w, result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: final})
}

// merge copies a run's per-layer metrics and absences into the totals.
func merge(layers metrics, absent map[string]string, o *outcome) {
	for k, v := range o.layers {
		layers[k] = v
		delete(absent, k)
	}
	for k, why := range o.absent {
		if _, ok := o.layers[k]; !ok {
			absent[k] = why
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fmtMetrics(m metrics) string {
	var parts []string
	for _, k := range sortedKeys(m) {
		parts = append(parts, fmt.Sprintf("%s=%.6g(%s)", k, m[k].Value, m[k].Unit))
	}
	return strings.Join(parts, " ")
}

func printResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
