package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/spec"
)

// BenchmarkTransportLoopbackVsTCP runs the same flooding task through the
// in-process loopback transport and through a 2-peer localhost TCP cluster,
// reporting rounds/sec (the frame-exchange cost per round — round control
// rides the same frames) and bytes/round (the halo traffic plus the frame
// headers). The computed result is identical on every path — the
// determinism contract — so the delta is pure transport overhead.
//
// The tcp variants sweep injected RTT: tcp-rtt0 is raw localhost;
// tcp-rtt1ms and tcp-rtt5ms wrap every cluster connection in a symmetric
// delay, so a round costs about one RTT.
func BenchmarkTransportLoopbackVsTCP(b *testing.B) {
	bgs := spec.GraphSpec{Family: "ringcliques", Blocks: 4, K: 8} // n = 32
	g, err := bgs.Build()
	if err != nil {
		b.Fatal(err)
	}

	b.Run("loopback", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			res, err := core.ApproxLocalMixingTime(g, 0, 4, 0.05, core.WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			rounds += int64(res.Stats.Rounds)
		}
		b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/sec")
		b.ReportMetric(0, "bytes/round") // loopback moves no wire bytes
	})

	for _, row := range []struct {
		name string
		rtt  time.Duration
	}{{"tcp-rtt0", 0}, {"tcp-rtt1ms", time.Millisecond}, {"tcp-rtt5ms", 5 * time.Millisecond}} {
		b.Run(row.name, func(b *testing.B) {
			if row.rtt > 0 {
				oneWay := row.rtt / 2
				setTestConnWrap(func(c net.Conn) net.Conn { return delayWrites(c, oneWay) })
				defer setTestConnWrap(nil)
			}
			c := startCluster(b, 2)
			ctx := context.Background()
			task := spec.TaskSpec{Kind: spec.KindLocal, Beta: 4, Eps: 0.05, Seed: 1, Cluster: &spec.ClusterSpec{}}
			b.ResetTimer()
			var rounds, wire int64
			for i := 0; i < b.N; i++ {
				got, err := c.Run(ctx, bgs, task)
				if err != nil {
					b.Fatal(err)
				}
				res := got.(*core.Result)
				rounds += int64(res.Stats.Rounds)
				wire += res.Stats.WireBytes
			}
			b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/sec")
			b.ReportMetric(float64(wire)/float64(rounds), "bytes/round")
		})
	}
}

// BenchmarkClusterSweep runs the same all-sources sweep in-process and over
// a 2-peer localhost TCP cluster, reporting per-source throughput and the
// chunk count the coordinator dispatched. Results are DeepEqual on both
// paths, so the delta is chunk fan-out overhead: one control round-trip per
// sweep.ChunkSize sources.
func BenchmarkClusterSweep(b *testing.B) {
	bgs := spec.GraphSpec{Family: "ringcliques", Blocks: 4, K: 8} // n = 32
	g, err := bgs.Build()
	if err != nil {
		b.Fatal(err)
	}

	b.Run("inprocess", func(b *testing.B) {
		cfg := core.Config{Mode: core.ApproxLocal, Beta: 4, Eps: 0.05}
		core.WithSeed(1)(&cfg)
		pool, err := core.NewSweepPool(g, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var sources int64
		for i := 0; i < b.N; i++ {
			res, err := pool.Sweep(core.SweepOptions{})
			if err != nil {
				b.Fatal(err)
			}
			sources += int64(len(res.Sources))
		}
		b.ReportMetric(float64(sources)/b.Elapsed().Seconds(), "sources/sec")
	})

	b.Run("tcp", func(b *testing.B) {
		c := startCluster(b, 2)
		ctx := context.Background()
		task := spec.TaskSpec{Kind: spec.KindSweep, Beta: 4, Eps: 0.05, Seed: 1}
		b.ResetTimer()
		var sources int64
		for i := 0; i < b.N; i++ {
			got, err := c.Run(ctx, bgs, task)
			if err != nil {
				b.Fatal(err)
			}
			sources += int64(len(got.(*core.MultiResult).Sources))
		}
		b.ReportMetric(float64(sources)/b.Elapsed().Seconds(), "sources/sec")
		b.ReportMetric(float64(c.SweepChunks())/float64(b.N), "chunks/sweep")
	})
}
