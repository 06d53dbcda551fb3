// Command lmt computes mixing quantities of a generated graph: the exact
// (centralized) mixing and local mixing times, and the distributed
// CONGEST-model computations of the paper with full round/message
// accounting — on static networks or under deterministic edge churn.
//
// lmt is a thin client of the spec-driven job layer (internal/service): it
// renders its flags as a GraphSpec plus one TaskSpec per computation and
// submits them through service.Run — exactly the code path cmd/lmtd serves
// over HTTP, so a CLI answer and a server answer for the same spec are the
// same bytes.
//
// Usage examples:
//
//	lmt -graph barbell -beta 8 -k 16                 # Figure 1 graph
//	lmt -graph ringcliques -beta 8 -k 16 -mode all
//	lmt -graph expander -n 256 -d 6 -mode approx
//	lmt -graph path -n 128 -lazy -mode exact
//	lmt -graph ringcliques -beta 8 -k 16 -mode approx -all     # graph-wide sweep
//	lmt -graph torus -dim 16 -mode mixing -lazy -sample 32 -sweepworkers 4
//	lmt -graph ringcliques -beta 8 -k 16 -mode approx -lazy -churn markov -churnrate 0.1
//	lmt -graph cycle -n 64 -mode mixing -lazy -churn snapshot -churnsnaps 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/service"
	"repro/internal/spec"
)

// cliFlags bundles every lmt flag. Registration lives in registerFlags so
// the README's flag table can be regenerated (and is test-enforced) from
// flag.PrintDefaults output.
type cliFlags struct {
	graph        *string
	n            *int
	k            *int
	beta         *float64
	d            *int
	dim          *int
	eps          *float64
	source       *int
	lazy         *bool
	mode         *string
	seed         *int64
	workers      *int
	stats        *bool
	dot          *string
	all          *bool
	sample       *int
	sweepWorkers *int
	churn        *string
	churnRate    *float64
	churnOn      *float64
	churnEvery   *int
	churnSnaps   *int
	churnBudget  *int
	churnDown    *int
	churnSeed    *int64
	deadline     *time.Duration
	repeat       *int
	retry        *int
	peers        *int
}

// registerFlags declares every lmt flag on fs. cmd/lmt's flags_test.go
// renders fs.PrintDefaults() and requires the README flag block to match.
func registerFlags(fs *flag.FlagSet) *cliFlags {
	return &cliFlags{
		graph:        fs.String("graph", "barbell", "family: barbell|ringcliques|complete|path|cycle|torus|hypercube|expander|lollipop|dumbbell"),
		n:            fs.Int("n", 128, "vertex count (complete, path, cycle, expander)"),
		k:            fs.Int("k", 16, "clique/block size (barbell, ringcliques, lollipop, dumbbell)"),
		beta:         fs.Float64("beta", 8, "β: local mixing set size is ≥ n/β; also the clique count for barbell/ringcliques"),
		d:            fs.Int("d", 6, "degree (expander; snapshot-churn samples)"),
		dim:          fs.Int("dim", 7, "dimension (hypercube, torus side)"),
		eps:          fs.Float64("eps", 1.0/21.746, "accuracy parameter ε (≈ 1/8e)"),
		source:       fs.Int("source", 0, "source vertex s"),
		lazy:         fs.Bool("lazy", false, "use the lazy walk (required on bipartite graphs)"),
		mode:         fs.String("mode", "all", "what to compute: oracle|approx|exact|mixing|all"),
		seed:         fs.Int64("seed", 1, "random seed (generators and engine)"),
		workers:      fs.Int("workers", 0, "engine worker goroutines (0 = GOMAXPROCS; never changes results)"),
		stats:        fs.Bool("enginestats", false, "print the engine's liveness/allocation/churn counters per run"),
		dot:          fs.String("dot", "", "write a Graphviz file with the oracle's witness local-mixing set highlighted"),
		all:          fs.Bool("all", false, "sweep every vertex as source: graph-wide τ(β,ε)=max_v τ_v (distributed modes)"),
		sample:       fs.Int("sample", 0, "sweep a deterministic sample of this many sources (footnote 6; implies a sweep)"),
		sweepWorkers: fs.Int("sweepworkers", 0, "sweep worker pool size (0 = GOMAXPROCS; never changes results)"),
		churn:        fs.String("churn", "none", "dynamic-network churn model for the distributed modes: none|markov|interval|snapshot|chaser|cutter|crash"),
		churnRate:    fs.Float64("churnrate", 0.1, "churn intensity: markov P(on→off); interval fraction of non-backbone edges down per window; crash per-vertex per-round crash probability"),
		churnOn:      fs.Float64("churnon", 0.5, "markov P(off→on) reactivation probability"),
		churnEvery:   fs.Int("churnevery", 8, "interval model: rounds between topology resamples; snapshot switch period"),
		churnSnaps:   fs.Int("churnsnaps", 3, "snapshot model: rotating random -d-regular samples in the cycle"),
		churnBudget:  fs.Int("churnbudget", 2, "chaser/cutter adversaries: per-round edge-cut budget"),
		churnDown:    fs.Int("churndown", 8, "crash model: outage length in rounds per crash"),
		churnSeed:    fs.Int64("churnseed", 0, "churn model seed (0 = use -seed)"),
		deadline:     fs.Duration("deadline", 0, "per-computation deadline (0 = none); runs exceeding it abort with a timeout error"),
		repeat:       fs.Int("repeat", 1, "submit each computation as a batch of this many identical requests (> 1 prints the batch cache summary; repeats are result-cache hits)"),
		retry:        fs.Int("retry", 0, "retry budget for 503-class failures (shed or timed-out requests): exponential backoff with jitter, the same discipline lmtd's Retry-After advertises (0 = fail fast)"),
		peers:        fs.Int("peers", 0, "run the distributed modes over this many cluster peers on localhost TCP: single-source runs shard the engine, -all/-sample sweeps fan source chunks out (0 = in-process; results are identical either way — oracle and churn stay in-process)"),
	}
}

// graphSpec renders the -graph flags as the job layer's GraphSpec.
func graphSpec(f *cliFlags) (spec.GraphSpec, error) {
	switch *f.graph {
	case "barbell", "ringcliques":
		return spec.GraphSpec{Family: *f.graph, Blocks: int(*f.beta), K: *f.k}, nil
	case "complete", "path", "cycle":
		return spec.GraphSpec{Family: *f.graph, N: *f.n}, nil
	case "torus", "hypercube":
		return spec.GraphSpec{Family: *f.graph, Dim: *f.dim}, nil
	case "expander":
		return spec.GraphSpec{Family: "expander", N: *f.n, D: *f.d, Seed: *f.seed}, nil
	case "lollipop":
		return spec.GraphSpec{Family: "lollipop", K: *f.k, Bridge: *f.k}, nil
	case "dumbbell":
		return spec.GraphSpec{Family: "dumbbell", K: *f.k, Bridge: 1}, nil
	default:
		return spec.GraphSpec{}, fmt.Errorf("unknown graph family %q", *f.graph)
	}
}

// churnSpec renders the -churn flags, or nil for "none".
func churnSpec(f *cliFlags) (*spec.ChurnSpec, error) {
	switch *f.churn {
	case "", "none":
		return nil, nil
	case "markov":
		return &spec.ChurnSpec{Model: "markov", Rate: *f.churnRate, On: *f.churnOn, Seed: *f.churnSeed}, nil
	case "interval":
		return &spec.ChurnSpec{Model: "interval", Rate: *f.churnRate, Every: *f.churnEvery, Seed: *f.churnSeed}, nil
	case "snapshot":
		return &spec.ChurnSpec{Model: "snapshot", Snapshots: *f.churnSnaps, Every: *f.churnEvery, Degree: *f.d, Seed: *f.churnSeed}, nil
	case "chaser", "cutter":
		return &spec.ChurnSpec{Model: *f.churn, Budget: *f.churnBudget, Seed: *f.churnSeed}, nil
	case "crash":
		return &spec.ChurnSpec{Model: "crash", Rate: *f.churnRate, Down: *f.churnDown, Seed: *f.churnSeed}, nil
	default:
		return nil, fmt.Errorf("unknown churn model %q (want none, markov, interval, snapshot, chaser, cutter or crash)", *f.churn)
	}
}

// baseTask renders the flags shared by every distributed task kind.
func baseTask(f *cliFlags, churn *spec.ChurnSpec) spec.TaskSpec {
	return spec.TaskSpec{
		Source:    *f.source,
		Beta:      *f.beta,
		Eps:       *f.eps,
		Lazy:      *f.lazy,
		Seed:      *f.seed,
		Workers:   *f.workers,
		Irregular: true,
		Churn:     churn,
	}
}

func main() {
	f := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := run(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// run executes the selected modes through the job layer, printing one line
// per computation.
func run(f *cliFlags) error {
	gs, err := graphSpec(f)
	if err != nil {
		return err
	}
	churn, err := churnSpec(f)
	if err != nil {
		return err
	}
	ctx := context.Background()
	opts := service.Options{CacheSize: 4}
	if *f.peers > 0 {
		// -peers stands up a real localhost cluster — coordinator plus N
		// peer runtimes exchanging message frames over TCP — and routes the
		// single-source distributed modes through it. The determinism
		// contract makes this a pure schedule change: every τ below is the
		// same number the in-process run prints.
		if *f.peers < 2 {
			return fmt.Errorf("-peers %d: a cluster needs at least 2 peers", *f.peers)
		}
		coord, err := cluster.NewCoordinator("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("start cluster coordinator: %w", err)
		}
		defer coord.Close()
		for i := 0; i < *f.peers; i++ {
			go cluster.Serve(ctx, coord.Addr())
		}
		waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err = coord.WaitForPeers(waitCtx, *f.peers)
		cancel()
		if err != nil {
			return fmt.Errorf("cluster peers never registered: %w", err)
		}
		opts.Cluster = coord
		fmt.Printf("cluster: %d peers over localhost TCP (coordinator %s)\n", *f.peers, coord.Addr())
	}
	svc := service.New(opts)

	g, _, err := svc.Graph(gs)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s  n=%d m=%d", g.Name(), g.N(), g.M())
	if d, ok := g.Regular(); ok {
		fmt.Printf("  %d-regular", d)
	}
	if diam, err := g.DiameterApprox(); err == nil {
		fmt.Printf("  diam≈%d", diam)
	}
	fmt.Println()
	if churn != nil {
		switch churn.Model {
		case "snapshot":
			fmt.Printf("churn: snapshot (snaps=%d every=%d d=%d; distributed modes run on the rotating random-regular superset, the oracle stays static)\n",
				churn.Snapshots, churn.Every, churn.Degree)
		case "chaser":
			fmt.Printf("churn: chaser (budget=%d; adaptive adversary cuts edges around the node that last published state)\n", churn.Budget)
		case "cutter":
			fmt.Printf("churn: cutter (budget=%d; oblivious rate-matched baseline for the chaser)\n", churn.Budget)
		case "crash":
			fmt.Printf("churn: crash (rate=%g down=%d; vertices crash-stop with all incident edges down, then restart)\n",
				churn.Rate, churn.Down)
		default:
			fmt.Printf("churn: %s (rate=%g; distributed modes run on the dynamic network, the oracle stays static)\n",
				churn.Model, churn.Rate)
		}
	}

	attempt := func(task spec.TaskSpec) (*service.Response, error) {
		task.DeadlineMS = f.deadline.Milliseconds()
		if *f.repeat > 1 {
			reqs := make([]service.Request, *f.repeat)
			for i := range reqs {
				reqs[i] = service.Request{Graph: gs, Task: task}
			}
			items, sum := svc.RunBatch(ctx, reqs)
			fmt.Printf("%-22s tasks=%d computed=%d resultHits=%d shared=%d errors=%d\n",
				"  batch", sum.Tasks, sum.Computed, sum.ResultHits, sum.Shared, sum.Errors)
			for _, it := range items {
				if it.Error != "" {
					return nil, fmt.Errorf("%s", it.Error)
				}
			}
			return items[0].Response, nil
		}
		return svc.Run(ctx, service.Request{Graph: gs, Task: task})
	}
	jitter := rand.New(rand.NewSource(*f.seed))
	submit := func(task spec.TaskSpec) (*service.Response, error) {
		resp, err := attempt(task)
		for tries := 0; err != nil && tries < *f.retry && retryable(err); tries++ {
			d := backoff(tries, jitter)
			fmt.Printf("%-22s attempt %d/%d failed (%v); backing off %s\n",
				"  retry", tries+1, *f.retry+1, err, d.Truncate(time.Millisecond))
			time.Sleep(d)
			resp, err = attempt(task)
		}
		return resp, err
	}
	report := func(label string, fn func() error) {
		if err := fn(); err != nil {
			fmt.Printf("%-22s ERROR: %v\n", label, err)
		}
	}
	engineStats := func(st *congest.Stats) {
		if *f.stats && st != nil {
			fmt.Printf("%-22s steps=%d sleepSkips=%d wakeups=%d ffRounds=%d stepGrows=%d dlvGrows=%d topoChanges=%d drops=%d\n",
				"  engine", st.ActiveSteps, st.SleepSkips, st.Wakeups, st.SkippedRounds, st.StepGrows, st.DeliverGrows,
				st.TopologyChanges, st.DroppedSends)
		}
	}

	// clusterize routes a single-source distributed task over the -peers
	// cluster. Churned tasks stay in-process (cluster v1 is static-topology
	// only), as the flag help promises.
	clusterize := func(t spec.TaskSpec) spec.TaskSpec {
		if *f.peers > 0 && t.Churn == nil {
			t.Cluster = &spec.ClusterSpec{}
		}
		return t
	}

	// Multi-source sweep mode (-all / -sample): the distributed modes
	// compute the graph-wide max over sources on the warm sweep pools
	// instead of a single-source run.
	sweeping := *f.all || *f.sample > 0
	sweepTask := func(mode string, churn *spec.ChurnSpec) spec.TaskSpec {
		t := baseTask(f, churn)
		t.Kind = spec.KindSweep
		t.Mode = mode
		t.Sample = *f.sample
		t.SweepWorkers = *f.sweepWorkers
		// Sweeps distribute too: the coordinator fans source chunks across
		// the peers' warm pools (same chunk grid, same per-source seeds).
		return clusterize(t)
	}
	printSweep := func(label string, multi *core.MultiResult) {
		fmt.Printf("%-22s τ=%d  argmax=%d  sources=%d  Σrounds=%d  Σmsgs=%d  Σbits=%d\n",
			label, multi.Tau, multi.ArgMax, len(multi.Sources),
			multi.TotalRounds, multi.TotalMessages, multi.TotalBits)
	}

	mode := *f.mode
	if mode == "oracle" || mode == "all" {
		report("oracle", func() error {
			t := spec.TaskSpec{Kind: spec.KindOracleMixing, Source: *f.source, Eps: *f.eps, Lazy: *f.lazy}
			resp, err := submit(t)
			if err != nil {
				return err
			}
			tm := resp.Result.(*service.TauResult).Tau
			t = spec.TaskSpec{Kind: spec.KindOracleLocal, Source: *f.source, Beta: *f.beta, Eps: *f.eps, Lazy: *f.lazy}
			resp, err = submit(t)
			if err != nil {
				return err
			}
			lr := resp.Result.(*exact.LocalResult)
			fmt.Printf("%-22s τ_mix=%d  τ_local(β=%g)=%d  witness |S|=%d  gap=%.1f×\n",
				"oracle (centralized)", tm, *f.beta, lr.T, lr.R, float64(tm)/float64(maxi(1, lr.T)))
			if *f.dot != "" {
				out, err := os.Create(*f.dot)
				if err != nil {
					return err
				}
				defer out.Close()
				if err := g.WriteDOT(out, lr.Set); err != nil {
					return err
				}
				fmt.Printf("%-22s wrote %s (witness set highlighted)\n", "", *f.dot)
			}
			return nil
		})
	}
	if mode == "approx" || mode == "all" {
		report("approx", func() error {
			if sweeping {
				resp, err := submit(sweepTask("approx", churn))
				if err != nil {
					return err
				}
				printSweep("Alg 2 sweep (Thm 1)", resp.Result.(*core.MultiResult))
				return nil
			}
			t := clusterize(baseTask(f, churn))
			t.Kind = spec.KindLocal
			resp, err := submit(t)
			if err != nil {
				return err
			}
			res := resp.Result.(*core.Result)
			fmt.Printf("%-22s τ̂=%d  R=%d  Σ=%.4f  rounds=%d  msgs=%d  maxEdgeBits=%d\n",
				"Algorithm 2 (Thm 1)", res.Tau, res.R, res.Sum, res.Stats.Rounds, res.Stats.Messages, res.Stats.MaxEdgeBits)
			engineStats(res.Stats)
			return nil
		})
	}
	if mode == "exact" || mode == "all" {
		report("exact", func() error {
			if sweeping {
				resp, err := submit(sweepTask("exact", churn))
				if err != nil {
					return err
				}
				printSweep("exact sweep (Thm 2)", resp.Result.(*core.MultiResult))
				return nil
			}
			t := clusterize(baseTask(f, churn))
			t.Kind = spec.KindLocal
			t.Exact = true
			resp, err := submit(t)
			if err != nil {
				return err
			}
			res := resp.Result.(*core.Result)
			fmt.Printf("%-22s τ=%d  R=%d  Σ=%.4f  rounds=%d  msgs=%d\n",
				"exact variant (Thm 2)", res.Tau, res.R, res.Sum, res.Stats.Rounds, res.Stats.Messages)
			engineStats(res.Stats)
			return nil
		})
	}
	if mode == "mixing" || mode == "all" {
		report("mixing", func() error {
			if sweeping {
				resp, err := submit(sweepTask("mixing", churn))
				if err != nil {
					return err
				}
				printSweep("mixing sweep [18]", resp.Result.(*core.MultiResult))
				return nil
			}
			t := clusterize(baseTask(f, churn))
			t.Kind = spec.KindMixing
			resp, err := submit(t)
			if err != nil {
				return err
			}
			res := resp.Result.(*core.Result)
			fmt.Printf("%-22s τ_mix=%d  rounds=%d  msgs=%d\n",
				"mixing baseline [18]", res.Tau, res.Stats.Rounds, res.Stats.Messages)
			engineStats(res.Stats)
			return nil
		})
	}
	return nil
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// retryable reports whether an error is worth retrying under -retry: the
// 503 class — shed (overloaded) or timed-out requests, the ones lmtd
// answers with Retry-After. Invalid requests and poisoned (panicked) ones
// never are: they fail identically on every attempt.
func retryable(err error) bool {
	return errors.Is(err, service.ErrOverloaded) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// backoff returns the nth retry delay: exponential from a 100ms base to a
// 5s cap, with equal jitter (uniform in [d/2, d)) so synchronized clients
// spread out. Deterministic under -seed like everything else in lmt.
func backoff(n int, r *rand.Rand) time.Duration {
	d := 100 * time.Millisecond << uint(n)
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	half := d / 2
	return half + time.Duration(r.Int63n(int64(half)))
}
