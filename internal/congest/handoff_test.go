package congest

import (
	"testing"
	"time"
)

// spinSink keeps the benchmark's spin loop observable to the compiler.
var spinSink int

// BenchmarkPhaseHandoff sizes inlineWork. "handoff" times one pooled phase
// with nothing to do at two workers: waking the pool goroutine and waiting
// for it. "unit" times the engine's work per unit of phase work (one Step
// or one moved message) on the caller alone. With two workers a pooled
// phase of work u costs about handoff + u·unit/2 against u·unit inline, so
// pooling pays from u ≈ 2·handoff/unit, reported as breakeven-work.
func BenchmarkPhaseHandoff(b *testing.B) {
	g := torusGraph(16) // n = 256 ≥ parallelMin: two shards
	var handoff, unit float64
	b.Run("handoff", func(b *testing.B) {
		net, err := NewNetwork(g, Config{Workers: 2, MaxRounds: 8})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Run(func(int) Process { return &floodEcho{horizon: 2} }); err != nil {
			b.Fatal(err)
		}
		net.startPool()
		defer net.pool.stop()
		// Between phases the caller spins for a while, as a round's merge
		// and protocol work would, so the pool goroutine parks and each
		// hand-off pays a real wake-up. Only runPhase itself is timed.
		var spent time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink := 0
			for j := 0; j < 20000; j++ {
				sink += j
			}
			spinSink = sink
			t0 := time.Now()
			net.runPhase(phaseDeliver, inlineWork) // empty outboxes: pure hand-off
			spent += time.Since(t0)
		}
		handoff = float64(spent.Nanoseconds()) / float64(b.N)
		b.ReportMetric(handoff, "ns/handoff")
	})
	b.Run("unit", func(b *testing.B) {
		var work int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			net, err := NewNetwork(g, Config{Workers: 1, MaxRounds: 40})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			st, err := net.Run(func(int) Process { return &floodEcho{horizon: 32} })
			if err != nil {
				b.Fatal(err)
			}
			work += st.ActiveSteps + st.Messages
		}
		unit = float64(b.Elapsed().Nanoseconds()) / float64(work)
		b.ReportMetric(unit, "ns/unit")
	})
	if unit > 0 {
		b.Logf("handoff %.0f ns, unit %.1f ns, breakeven-work %.0f", handoff, unit, 2*handoff/unit)
	}
}
