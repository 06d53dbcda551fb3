package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []Span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(1), End: ms(3)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(2), End: ms(5)},  // overlaps a: union 1..5
		{ID: 4, Parent: 1, Name: "c", Start: ms(8), End: ms(12)}, // clipped to the parent: 8..10
		{ID: 5, Parent: 3, Name: "d", Start: ms(2), End: ms(4)},
		{ID: 6, Name: "other", Start: ms(20), End: ms(21)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: ms(4), 2: ms(2), 3: ms(1), 4: ms(4), 5: ms(2), 6: ms(1)}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	sum := map[string]spanSummary{}
	for _, s := range summarize(spans) {
		sum[s.Name] = s
	}
	if got := sum["root"]; got.Total != ms(10) || got.Self != ms(4) || got.Count != 1 {
		t.Fatalf("root summary %+v", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *Tracer
	sp := tr.begin("x", 0, 1)
	if d := sp.end(); d != 0 || tr.Spans() != nil {
		t.Fatal("a nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("root", 0, 7)
	tr.begin("child", root.id, 7).end()
	root.end()
	got := tr.Spans()
	if len(got) != 2 || got[0].Parent != root.id || got[1].ID != root.id || got[0].Req != 7 {
		t.Fatalf("spans %+v", got)
	}
}

func TestTailStat(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {40, 50}, {99, 50}, {100, 90}, {300, 90}, {999, 90}, {1000, 99}, {9000, 99}, {10000, 99.9}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if p, _, n := tailStat(xs); p != c.want || n != c.n {
			t.Errorf("n=%d: percentile %g, want %g", c.n, p, c.want)
		}
	}
	if q := quantile([]float64{1, 2, 3, 4}, 0.5); q != 2.5 {
		t.Errorf("median of 1..4 = %g", q)
	}
}

func TestCalmSlices(t *testing.T) {
	got := calmSlices([]int64{5, 0, 9, 0, 3})
	if want := map[int]bool{1: true, 3: true, 4: true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("calm slices %v, want %v", got, want)
	}
	if got := calmSlices([]int64{0, 0, 0, 0}); !reflect.DeepEqual(got, map[int]bool{0: true, 1: true}) {
		t.Fatalf("quiet host: calm slices %v, want the first half", got)
	}
}

func TestE2EFromCalmSlices(t *testing.T) {
	ms := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	ticks := int64(runtime.NumCPU() * clockTicks) // a whole machine-second
	// Four 1 s slices; slices 1 and 3 are stormy and their jobs 10x slower.
	// The calm slices 0 and 2 saw 10% steal.
	l := loopStats{steal: []int64{ticks / 10, ticks, ticks / 10, ticks}}
	for k := 0; k < 4; k++ {
		lat := ms(2)
		if k%2 == 1 {
			lat = ms(20)
		}
		for i := 0; i < 100; i++ {
			l.samples = append(l.samples, sample{at: time.Duration(k)*time.Second + ms(float64(i)), lat: lat, good: true})
		}
	}
	l.samples = append(l.samples, sample{at: 4 * time.Second, lat: ms(1000), good: true}) // past the last slice
	l.setups = []setup{{d: time.Second, stolen: ticks / 4}}
	l.hwm = 5 << 20
	o := &outcome{loop: l}
	m, _ := o.e2e()
	near := func(name string, want float64) {
		t.Helper()
		if got := m[name].Value; got < want*0.999 || got > want*1.001 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	near("p50_ms", 2)
	near("tail_ms", 2*0.9)
	near("goodput_per_s", 200/(0.4*0.9)) // 200 jobs in 0.4 s of busy time, 90% of it ours
	near("setup_s", 0.75)
	near("rss_mb", 5)
	o.openLoop = true
	m, _ = o.e2e()
	near("goodput_per_s", 100) // 200 jobs in the 2 calm seconds
	// A probed round trip twice the reference halves p50 and nothing else;
	// a per-slice peak replaces the whole-run one.
	o.loop.rttUS, o.loop.sliceHWM = 2*rtRefUS, 3<<20
	m, _ = o.e2e()
	near("p50_ms", 1)
	near("tail_ms", 2*0.9)
	near("rss_mb", 3)
}

func TestSameSeedSameJobs(t *testing.T) {
	for _, weights := range [][]classWeight{solveClasses, clusterClasses} {
		a, b, c := newSequence(3, weights), newSequence(3, weights), newSequence(4, weights)
		differ := false
		for i := 0; i < 40; i++ {
			ca, ra := a.job()
			cb, rb := b.job()
			cc, rc := c.job()
			if ca != cb || !reflect.DeepEqual(ra, rb) {
				t.Fatalf("job %d differs for one seed: %s %+v vs %s %+v", i, ca, ra, cb, rb)
			}
			differ = differ || ca != cc || !reflect.DeepEqual(ra, rc)
		}
		if !differ {
			t.Fatal("seeds 3 and 4 gave the same jobs")
		}
	}
	h1, o1, w1 := serveSchedule(5, 2*time.Second)
	h2, o2, w2 := serveSchedule(5, 2*time.Second)
	if !reflect.DeepEqual(h1, h2) || !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(w1, w2) {
		t.Fatal("serve schedule differs for one seed")
	}
	if len(o1) != 2*serveRate {
		t.Fatalf("%d requests scheduled, want %d", len(o1), 2*serveRate)
	}
}

func TestSourcesDistinct(t *testing.T) {
	s := pickSources(rand.New(rand.NewSource(1)), 32, 8)
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatalf("sources %v not ascending and distinct", s)
		}
	}
}

func TestMaskStats(t *testing.T) {
	a := []byte(`{"Tau":3,"Stats":{"Rounds":9},"Results":[{"Tau":1,"Stats":{"WireBytes":1}}]}`)
	b := []byte(`{"Tau":3,"Stats":{"Rounds":7},"Results":[{"Tau":1,"Stats":{"WireBytes":2}}]}`)
	c := []byte(`{"Tau":4,"Stats":{"Rounds":9},"Results":[{"Tau":1,"Stats":{"WireBytes":1}}]}`)
	if !sameResult(a, b) || sameResult(a, c) {
		t.Fatal("masked comparison wrong")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string }         `json:"end_to_end"`
	Layers   []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestPerLayerListMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Layers) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(bj.Layers), len(perLayer))
	}
	for i, l := range bj.Layers {
		if p := perLayer[i]; l.Name != p.name || l.Unit != p.unit || l.Better != p.better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, l, p)
		}
	}
}

// buildLmtd compiles cmd/lmtd for the end-to-end tests.
func buildLmtd(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("starts lmtd processes and runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "lmtd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lmtd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build lmtd: %v\n%s", err, out)
	}
	return bin
}

// lastResult parses the last output line.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

func TestShortRuns(t *testing.T) {
	lmtd := buildLmtd(t)
	bj := readBenchmarkJSON(t)
	for _, w := range []string{"serve", "solve", "cluster"} {
		var out bytes.Buffer
		if err := run(&out, w, 2, 2, false, lmtd, t.TempDir()); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		r := lastResult(t, out.String())
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Fatalf("%s: %+v\n%s", w, r, out.String())
		}
		if len(r.Metrics) != len(bj.EndToEnd) {
			t.Errorf("%s printed %d end-to-end metrics, BENCHMARK.json names %d", w, len(r.Metrics), len(bj.EndToEnd))
		}
		for _, e := range bj.EndToEnd {
			if m, ok := r.Metrics[e.Name]; !ok || m.Unit != e.Unit || !(m.Value > 0) {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", w, e.Name, m, e.Unit)
			}
		}
	}
	var out bytes.Buffer
	if err := run(&out, "solve", 2, 2, true, lmtd, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	r := lastResult(t, out.String())
	if !r.Correct || len(r.Metrics) != len(perLayer) {
		t.Fatalf("traced run: correct=%v, %d metrics, want %d\n%s", r.Correct, len(r.Metrics), len(perLayer), out.String())
	}
	for _, l := range perLayer {
		if m, ok := r.Metrics[l.name]; !ok || m.Unit != l.unit {
			t.Errorf("traced run: metric %s = %+v, want unit %s", l.name, m, l.unit)
		}
	}
}

// deterministicCounts are the per-layer counts that must repeat exactly
// for a seed.
var deterministicCounts = []string{
	"congest.rounds_per_job", "congest.msgs_per_job",
	"cluster.rounds_per_job", "cluster.wire_bytes_per_round", "cluster.frames_per_round",
	"cluster.syncs_per_round", "cluster.sweep_chunks_per_job",
}

func TestDeterministicCountsRepeat(t *testing.T) {
	lmtd := buildLmtd(t)
	ctx := context.Background()
	counts := func() map[string]float64 {
		out := map[string]float64{}
		for _, w := range []workload{runSolve, runCluster} {
			o, err := w(ctx, runCfg{seed: 9, window: 2 * time.Second, setups: 1, lmtd: lmtd, tr: newTracer()})
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 {
				t.Fatalf("%d of %d operations failed", o.failed, o.attempted)
			}
			for _, n := range deterministicCounts {
				if m, ok := o.layers[n]; ok {
					out[n] = m.Value
				}
			}
		}
		return out
	}
	a, b := counts(), counts()
	if len(a) != len(deterministicCounts) {
		t.Fatalf("measured %v, want all of %v", a, deterministicCounts)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("counts differ between two runs of one seed:\n%v\n%v", a, b)
	}
}

func TestRawConn(t *testing.T) {
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		body, _ := io.ReadAll(r.Body)
		switch r.URL.Path {
		case "/big": // past net/http's buffer: a chunked response
			w.Write(bytes.Repeat(body, 4096))
		case "/close":
			w.Header().Set("Connection", "close")
			w.Write(body)
		default:
			w.WriteHeader(http.StatusTeapot)
			w.Write(body)
		}
	}))
	defer srv.Close()
	c, err := dialRaw(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, want := range []struct {
		path, body string
		status     int
		resp       string
	}{
		{"/small", "abc", http.StatusTeapot, "abc"},
		{"/big", "xy", http.StatusOK, strings.Repeat("xy", 4096)},
		{"/close", "q", http.StatusOK, "q"}, // the next request dials again
		{"/small", "again", http.StatusTeapot, "again"},
	} {
		status, body, err := c.post(want.path, []byte(want.body))
		if err != nil || status != want.status || string(body) != want.resp {
			t.Fatalf("request %d: status %d, %d bytes, err %v", i, status, len(body), err)
		}
	}
	if calls != 4 {
		t.Fatalf("server saw %d requests, want 4", calls)
	}
}

func TestRTProbe(t *testing.T) {
	p, err := startRTProbe()
	if err != nil {
		t.Fatal(err)
	}
	rtt, err := p.rttUS()
	p.close()
	if err != nil || rtt <= 0 {
		t.Fatalf("round trip %g us, err %v", rtt, err)
	}
	if _, err := p.rttUS(); err == nil {
		t.Fatal("a closed probe still pings")
	}
}
