package main

import (
	"fmt"
	"runtime"
	"time"

	"lppa/internal/round"
)

// traceRun is what a traced run measured: the composed clearings' layer
// totals plus, for the service, the intake, seal and ledger layers.
type traceRun struct {
	sum       layers
	clears    int
	untraced  []float64 // ms per untraced round.Run on the same inputs
	gcCycles  uint32
	gcCPU     float64
	busyCPU   float64
	attempted int
	failed    int
	problems  []string

	// service-churn only
	epochs       int
	intakeUs     []float64
	submits      int
	shed         int
	superseded   int
	sealWaitMs   []float64
	ledgerCalls  uint64
	ledgerWrites uint64
	ledgerBusy   time.Duration
}

// compose clears in through the composer, checks its award digest
// against want (the untraced run's), and folds its costs into tr.
func (tr *traceRun) compose(c *composer, in input, want [32]byte) {
	tr.attempted++
	a, l, err := c.clear(in)
	if err != nil {
		tr.failed++
		tr.problems = append(tr.problems, fmt.Sprintf("composed clearing %d: %v", in.label, err))
		return
	}
	if a.digest(in.label, in.ids) != want {
		tr.failed++
		tr.problems = append(tr.problems, fmt.Sprintf("composed clearing %d: award digest differs from the untraced run", in.label))
		return
	}
	tr.sum.add(l)
	tr.clears++
}

// composeBlock clears each of cs again through the composer, with the
// input that input rebuilds from its label, in a block of its own. The
// runtime refreshes its CPU-class figures only when a GC cycle ends, so
// forced collections bracket the block: the GC CPU figures then cover
// exactly the block, the collection of its garbage included.
func (tr *traceRun) composeBlock(c *composer, cs []clearing, input func(label int) input) {
	runtime.GC()
	g0 := snap()
	for _, cl := range cs {
		tr.compose(c, input(cl.label), cl.digest)
	}
	tr.gcCycles = snap().numGC - g0.numGC
	runtime.GC()
	g1 := snap()
	tr.gcCPU, tr.busyCPU = g1.gcCPU-g0.gcCPU, g1.busyCPU-g0.busyCPU
}

// untracedClear clears in through round.Run with opts and times it; ok
// is false if the clearing errored.
func (tr *traceRun) untracedClear(fx *fixture, in input, opts []round.Option) (c clearing, ok bool) {
	t := time.Now()
	res, err := fx.runRound(in, opts...)
	d := time.Since(t)
	if err != nil {
		tr.attempted++
		tr.failed++
		tr.problems = append(tr.problems, fmt.Sprintf("untraced clearing %d: %v", in.label, err))
		return clearing{}, false
	}
	tr.untraced = append(tr.untraced, ms(d))
	return clearing{label: in.label, n: len(in.ids), dur: d, digest: awardOf(res).digest(in.label, in.ids)}, true
}

// traceOneshot is the traced one-shot workload: rounds are cleared
// untraced through round.Run for a third of dur, then the same rounds
// again through the composed layers, which take about twice as long.
func traceOneshot(w workload, seed int64, dur time.Duration) (*traceRun, error) {
	fx, err := oneshotSetUp(w, seed)
	if err != nil {
		return nil, err
	}
	opts := w.roundOptions()
	c := &composer{fx: fx, shards: w.shards}
	tr := &traceRun{}
	warm := fx.oneshotInput(laneWarm, 0)
	if cl, ok := tr.untracedClear(fx, warm, opts); ok {
		tr.compose(c, warm, cl.digest)
	}
	if tr.failed > 0 {
		return tr, nil
	}
	*tr = traceRun{}

	var cs []clearing
	start := time.Now()
	for k := 0; time.Since(start) < dur/3; k++ {
		if cl, ok := tr.untracedClear(fx, fx.oneshotInput(laneBids, k), opts); ok {
			cs = append(cs, cl)
		}
	}
	tr.composeBlock(c, cs, func(k int) input { return fx.oneshotInput(laneBids, k) })
	return tr, nil
}

// traceService is the traced service-churn workload. It replays the
// service for a quarter of dur, timing intake, Seal and the ledger store
// from outside. Then it rebuilds those epochs' inputs and clears each
// again: untraced through round.Run with a reused epoch state, checked
// against the service's digest, and then, in a block of their own,
// through the composed layers with a reused auctioneer and planner.
func traceService(w workload, seed int64, dur time.Duration) (*traceRun, error) {
	r, err := startService(w, seed, true)
	if err != nil {
		return nil, err
	}
	tr := &traceRun{}
	r.intakeUs = r.intakeUs[:0]
	r.submits, r.shed = 0, 0
	c0, w0, b0 := r.billing.stats()
	q0, qw0, qb0 := r.quota.stats()

	runtime.GC()
	first, err := r.timedPasses(dur / 4)
	if err != nil {
		return nil, err
	}
	c1, w1, b1 := r.billing.stats()
	q1, qw1, qb1 := r.quota.stats()
	if err := r.finish(); err != nil {
		return nil, err
	}
	tr.problems = append(tr.problems, r.problems...)
	tr.intakeUs, tr.submits, tr.shed = r.intakeUs, r.submits, r.shed
	tr.ledgerCalls = (c1 - c0) + (q1 - q0)
	tr.ledgerWrites = (w1 - w0) + (qw1 - qw0)
	tr.ledgerBusy = (b1 - b0) + (qb1 - qb0)

	ins, err := r.inputs()
	if err != nil {
		return nil, err
	}
	opts := append(w.roundOptions(), round.WithEpochState(round.NewEpochState()))
	var cs []clearing
	for e := first; e < len(r.epochs) && e < len(r.outs); e++ {
		rec, d := r.epochs[e], r.outs[e]
		tr.epochs++
		tr.superseded += rec.superseded
		tr.sealWaitMs = append(tr.sealWaitMs, ms(rec.sealWait))
		if d.err != nil {
			tr.attempted++
			tr.failed++
			tr.problems = append(tr.problems, fmt.Sprintf("service epoch %d: %v", e, d.err))
			continue
		}
		cl, ok := tr.untracedClear(r.fx, ins[e], opts)
		if !ok {
			continue
		}
		if cl.digest != d.digest {
			tr.problems = append(tr.problems, fmt.Sprintf("epoch %d: round.Run digest differs from the service's", e))
		}
		cs = append(cs, clearing{label: e, n: d.n, digest: d.digest})
	}
	c := &composer{fx: r.fx, shards: w.shards, reuse: true}
	tr.composeBlock(c, cs, func(e int) input { return ins[e] })
	return tr, nil
}
