package core

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/exact"
	"repro/internal/protocol"
)

// driver is the process run by the source vertex s. It embeds the responder
// (the source participates in the tree, the flooding and the aggregations
// like any node) and adds the orchestration: epochs over walk lengths ℓ,
// the loop over candidate set sizes R, the distributed binary search for
// the sum of the R smallest differences, and the stopping decision (§3.1).
type driver struct {
	node

	state     dstate
	phaseNo   int32 // epoch counter (tags BFS/FLOODSTART/WALK messages)
	ell       int   // current walk length
	prevEll   int   // previous (failing) length, for MixTime refinement
	treeDone  bool  // tree spans the whole graph; BFS rebuilds can stop
	treeSize  int64
	maxDepth  int64
	virtCount int64 // nodes outside the depth-capped tree (all have w=0)

	// R loop.
	rGrid []int
	rIdx  int
	curR  int64

	// Binary search state.
	qseq      int32
	lo, hi    int64
	lastMid   int64
	lastCnt   int64
	lastSum   int64
	haveEval  bool
	finalEval bool

	// MixTime refinement (binary search over lengths once doubling passes).
	refining  bool
	refLo     int
	refHi     int
	passedSum int64

	// Outcome.
	res     Result
	failErr error
	done    bool
}

type dstate int

const (
	dsCensus dstate = iota
	dsFloodWait
	dsMinMax
	dsSearch
	dsDone
)

func newDriver(sh *shared) *driver {
	d := &driver{node: node{sh: sh, phase: -1}}
	d.res.Mode = sh.cfg.Mode
	d.res.Scale = sh.scale
	return d
}

// Init starts epoch 1 with ℓ = 1.
func (d *driver) Init(ctx *congest.Context) {
	if d.sh.cfg.Mode != MixTime {
		d.rGrid = exact.CandidateSizes(ctx.N(), d.sh.cfg.Beta, true, d.sh.cfg.Eps)
	}
	d.ell = 1
	d.phaseNo = 0
	d.startEpoch(ctx)
}

// Step implements congest.Process: responder duties first, then driving.
func (d *driver) Step(ctx *congest.Context) {
	d.processRound(ctx)
	if d.done {
		return
	}
	switch d.state {
	case dsCensus:
		if d.tree.CensusDone {
			d.treeSize = d.tree.TreeSize
			d.maxDepth = d.tree.MaxDepth
			d.virtCount = int64(ctx.N()) - d.treeSize
			if d.treeSize == int64(ctx.N()) {
				d.treeDone = true
			}
			d.tracePhase().TreeSize = d.treeSize
			d.tracePhase().MaxDepth = d.maxDepth
			d.issueFloodStart(ctx)
		}
	case dsFloodWait:
		if ctx.Round() >= d.f0+d.flen {
			d.beginChecks(ctx)
		}
	case dsMinMax:
		if d.agg.Done {
			d.agg.Done = false
			d.onMinMax(ctx)
		}
	case dsSearch:
		if d.agg.Done {
			d.agg.Done = false
			d.onProbe(ctx)
		}
	}
}

// tracePhase returns the current phase's trace entry.
func (d *driver) tracePhase() *PhaseTrace {
	return &d.res.Phases[len(d.res.Phases)-1]
}

// startEpoch begins the epoch for the current ℓ: BFS (if the tree does not
// yet span the graph) or directly the flooding window.
func (d *driver) startEpoch(ctx *congest.Context) {
	d.phaseNo++
	d.res.Phases = append(d.res.Phases, PhaseTrace{
		Ell:        d.ell,
		StartRound: ctx.Round(),
	})
	if !d.treeDone {
		cap := int64(d.ell)
		if d.sh.cfg.Mode == MixTime {
			cap = int64(ctx.N()) // [18] checks a global sum: span everything
		}
		d.tracePhase().TreeRebuilt = true
		d.tree.StartRoot(ctx, d.sh.sizes, d.phaseNo, cap)
		d.state = dsCensus
		return
	}
	d.tracePhase().TreeSize = d.treeSize
	d.tracePhase().MaxDepth = d.maxDepth
	d.issueFloodStart(ctx)
}

// issueFloodStart schedules the flooding window and seeds the source mass.
func (d *driver) issueFloodStart(ctx *congest.Context) {
	flen := d.ell
	if d.sh.cfg.Mode == ExactLocal {
		flen = 1 // the walk persists; each epoch advances one step
	}
	f0 := ctx.Round() + int(d.maxDepth) + 2
	d.phase = d.phaseNo
	d.f0 = f0
	d.flen = flen
	switch d.sh.cfg.Mode {
	case ExactLocal:
		if d.ell == 1 {
			d.w = d.sh.scale.One
		}
	default:
		d.w = d.sh.scale.One // restart
	}
	d.tree.SendChildren(ctx, congest.Message{
		Kind: protocol.KindFloodStart, Seq: d.phaseNo,
		Value: int64(f0), Aux: int64(flen), Bits: d.sh.sizes.Control(),
	})
	d.state = dsFloodWait
}

// beginChecks starts the per-length testing: the R loop for the local modes,
// or the single global check for MixTime.
func (d *driver) beginChecks(ctx *congest.Context) {
	if d.sh.cfg.Mode == MixTime {
		d.qseq++
		d.curR = 0
		// The driver contributes through the same path as everyone else.
		d.onCheck(ctx, congest.Message{Seq: d.qseq})
		d.state = dsSearch // completion handled in onProbe's MixTime branch
		return
	}
	d.rIdx = 0
	d.issueSetR(ctx)
}

// issueSetR announces the next candidate size R and collects (min,max).
func (d *driver) issueSetR(ctx *congest.Context) {
	r := d.rGrid[d.rIdx]
	d.curR = int64(r)
	d.qseq++
	d.tracePhase().SizesChecked++
	d.onSetR(ctx, congest.Message{Seq: d.qseq, Value: int64(r)})
	d.state = dsMinMax
}

// virtValue is the x value of every out-of-tree node: they hold w = 0, so
// x = ⌊One/R⌋, shifted when randomized tie-breaking is on (virtual nodes
// get zero tie bits — they are indistinguishable anyway and are resolved as
// a block by the threshold arithmetic).
func (d *driver) virtValue() int64 {
	return (d.sh.scale.One / d.curR) << uint(d.sh.cfg.TieBreakBits)
}

// onMinMax folds the virtual (out-of-tree) nodes into the bounds and starts
// the binary search for the R-th smallest difference.
func (d *driver) onMinMax(ctx *congest.Context) {
	d.lo, d.hi = d.agg.Min, d.agg.Max
	if d.virtCount > 0 {
		v := d.virtValue()
		if v < d.lo {
			d.lo = v
		}
		if v > d.hi {
			d.hi = v
		}
	}
	d.haveEval = false
	d.finalEval = false
	d.stepSearch(ctx)
}

// stepSearch issues the next probe, or finishes the current R.
func (d *driver) stepSearch(ctx *congest.Context) {
	if d.lo < d.hi {
		mid := d.lo + (d.hi-d.lo)/2
		d.issueQuery(ctx, mid, false)
		return
	}
	// lo == hi == T, the R-th smallest value. Reuse the cached evaluation
	// at T when the final probe already landed there.
	if d.haveEval && d.lastMid == d.lo {
		d.finishR(ctx, d.lastCnt, d.lastSum)
		return
	}
	d.issueQuery(ctx, d.lo, true)
}

// issueQuery broadcasts one binary-search probe.
func (d *driver) issueQuery(ctx *congest.Context, mid int64, final bool) {
	d.qseq++
	d.finalEval = final
	d.lastMid = mid
	d.tracePhase().Queries++
	d.onQuery(ctx, congest.Message{Seq: d.qseq, Value: mid})
	d.state = dsSearch
}

// onProbe handles a completed aggregation in dsSearch: either a MixTime
// decision, a binary-search step, or the final evaluation at T.
func (d *driver) onProbe(ctx *congest.Context) {
	if d.sh.cfg.Mode == MixTime {
		d.decideMixing(ctx, d.agg.Sum)
		return
	}
	cnt, sum := d.agg.Count, d.agg.Sum
	if d.virtCount > 0 {
		v := d.virtValue()
		if v <= d.lastMid {
			cnt += d.virtCount
			sum += d.virtCount * v
		}
	}
	d.haveEval = true
	d.lastCnt = cnt
	d.lastSum = sum
	if d.finalEval {
		d.finishR(ctx, cnt, sum)
		return
	}
	if cnt >= d.curR {
		d.hi = d.lastMid
	} else {
		d.lo = d.lastMid + 1
	}
	d.stepSearch(ctx)
}

// finishR applies Algorithm 2's test: Σ of the R smallest differences < 4ε.
func (d *driver) finishR(ctx *congest.Context, cntAtT, sumAtT int64) {
	t := d.lo
	sumR := sumAtT - (cntAtT-d.curR)*t
	tb := uint(d.sh.cfg.TieBreakBits)
	threshold := d.sh.scale.FromFloat(4*d.sh.cfg.Eps) << tb
	if sumR < threshold {
		d.res.Tau = d.ell
		d.res.R = int(d.curR)
		d.res.Sum = d.sh.scale.Float(sumR >> tb)
		d.finish(ctx, int64(d.ell))
		return
	}
	d.rIdx++
	if d.rIdx < len(d.rGrid) {
		d.issueSetR(ctx)
		return
	}
	// Every size failed at this ℓ: advance the length.
	next := d.ell + 1
	if d.sh.cfg.Mode == ApproxLocal {
		next = d.ell * 2
	}
	d.advanceLength(ctx, next)
}

// decideMixing handles the [18] baseline decision: global Σ|w−π| < ε.
func (d *driver) decideMixing(ctx *congest.Context, sum int64) {
	threshold := d.sh.scale.FromFloat(d.sh.cfg.Eps)
	pass := sum < threshold
	if !d.refining {
		if pass {
			if d.ell == 1 {
				d.res.Tau = 1
				d.res.Sum = d.sh.scale.Float(sum)
				d.finish(ctx, 1)
				return
			}
			// Monotonicity (Lemma 1): τ ∈ (ℓ/2, ℓ]. Refine by binary search
			// over lengths, restarting the walk for each probe.
			d.refining = true
			d.refLo = d.prevEll + 1
			d.refHi = d.ell
			d.passedSum = sum
			d.refineStep(ctx)
			return
		}
		d.prevEll = d.ell
		d.advanceLength(ctx, d.ell*2)
		return
	}
	// Refinement probe at d.ell.
	if pass {
		d.refHi = d.ell
		d.passedSum = sum
	} else {
		d.refLo = d.ell + 1
	}
	d.refineStep(ctx)
}

// refineStep continues the length binary search or finishes.
func (d *driver) refineStep(ctx *congest.Context) {
	if d.refLo >= d.refHi {
		d.res.Tau = d.refHi
		d.res.Sum = d.sh.scale.Float(d.passedSum)
		d.finish(ctx, int64(d.refHi))
		return
	}
	mid := d.refLo + (d.refHi-d.refLo)/2
	d.advanceLength(ctx, mid)
}

// advanceLength moves to the next epoch with the given walk length, or
// aborts when the cap is exceeded.
func (d *driver) advanceLength(ctx *congest.Context, next int) {
	if next > d.sh.cfg.MaxLength {
		d.failErr = fmt.Errorf("%w (cap %d, mode %s)", ErrNoConvergence, d.sh.cfg.MaxLength, d.sh.cfg.Mode)
		d.finish(ctx, -1)
		return
	}
	d.ell = next
	d.startEpoch(ctx)
}

// finish floods STOP and halts the source.
func (d *driver) finish(ctx *congest.Context, value int64) {
	d.state = dsDone
	d.done = true
	ctx.Broadcast(congest.Message{Kind: protocol.KindStop, Value: value, Bits: d.sh.sizes.Control()})
	ctx.Halt()
}
