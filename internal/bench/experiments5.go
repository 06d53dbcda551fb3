package bench

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/spread"
)

// E15EngineCounters surfaces the round engine's liveness and allocation
// counters across representative workloads: one CONGEST algorithm run
// (Algorithm 2), one pure flooding run (Algorithm 1), and the CONGEST
// push–pull variant (footnote 10). The grow counters are the observable form
// of the engine's zero-allocation property: in the steady state they stay
// flat no matter how many messages move, so a per-message allocation
// regression shows up here (and in the congest package's regression test)
// before it shows up in wall-clock time.
func E15EngineCounters(sc Scale) (*Table, error) {
	k := 12
	ell := 64
	if sc == Full {
		k = 32
		ell = 256
	}
	t := &Table{
		ID:    "E15",
		Title: "Engine telemetry: liveness and allocation counters per workload",
		Note: "steps = Step invocations (O(active), not O(n·rounds)); skips/wakes/ff = sleep machinery; " +
			"grows = buffer growth events (flat in steady state = zero-allocation round loop)",
		Header: []string{"workload", "n", "rounds", "msgs", "steps", "skips", "wakes", "ff_rounds", "step_grows", "dlv_grows"},
	}
	add := func(name string, n int, st *congest.Stats) {
		t.Add(name, n, st.Rounds, st.Messages, st.ActiveSteps, st.SleepSkips, st.Wakeups,
			st.SkippedRounds, st.StepGrows, st.DeliverGrows)
	}

	g, err := gen.RingOfCliques(8, k)
	if err != nil {
		return nil, err
	}
	res, err := core.ApproxLocalMixingTime(g, 0, 8, 0.15)
	if err != nil {
		return nil, err
	}
	add(fmt.Sprintf("algo2/ringcliques(8,%d)", k), g.N(), res.Stats)

	est, err := core.EstimateRWProbability(g, 0, ell, core.Config{})
	if err != nil {
		return nil, err
	}
	add(fmt.Sprintf("estimate-rw(ℓ=%d)", ell), g.N(), est.Stats)

	bb, err := gen.Barbell(8, k)
	if err != nil {
		return nil, err
	}
	pc, err := spread.RunCongest(bb, spread.Config{Beta: 8, Seed: 11, StopAtPartial: true})
	if err != nil {
		return nil, err
	}
	add("pushpull-congest/barbell", bb.N(), pc.Stats)
	return t, nil
}
