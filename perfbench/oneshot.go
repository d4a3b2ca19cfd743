package main

import (
	"fmt"
	"runtime"
	"time"

	"lppa/internal/round"
)

// clearing is one timed clearing: which clearing it was, how many
// bidders it cleared, its wall time, award digest and error. Its input is
// not kept: the gate rebuilds it from the label after the run, so the
// retained state does not grow with the number of clearings.
type clearing struct {
	label  int // one-shot round or service epoch
	n      int
	dur    time.Duration
	digest [32]byte
	err    error
	bytes  int // Result.SubmissionBytes
}

// e2eRun is what an untraced run measured.
type e2eRun struct {
	setups    []time.Duration
	clearings []clearing
	wall      time.Duration
	before    procSnap
	after     procSnap
	peakRSSMB float64
	// failed counts clearings that errored or whose award digest differs
	// from the oracle's; problems lists other failed correctness checks.
	failed   int
	problems []string
}

// gate reruns every clearing on the oracle path, with the input that
// input rebuilds from its label, and counts the clearings that errored or
// whose award digest differs from the oracle's. It runs after the timed
// region, one single-worker oracle round per worker.
func gate(fx *fixture, cs []clearing, input func(label int) input) int {
	failed := make([]int, workers)
	striped(workers, len(cs), func(k, i int) {
		c := cs[i]
		if c.err != nil {
			failed[k]++
			return
		}
		if want, err := fx.oracleDigest(input(c.label)); err != nil || want != c.digest {
			failed[k]++
		}
	})
	total := 0
	for _, f := range failed {
		total += f
	}
	return total
}

// oneshotSetUp is the one-shot set-up: the fixture and one warm-up
// clearing.
func oneshotSetUp(w workload, seed int64) (*fixture, error) {
	fx, err := newFixture(seed, populationN, channels)
	if err != nil {
		return nil, err
	}
	if _, err := fx.runRound(fx.oneshotInput(laneWarm, 0), w.roundOptions()...); err != nil {
		return nil, fmt.Errorf("warm-up clearing: %w", err)
	}
	return fx, nil
}

// runOneshot is the untraced one-shot workload: back-to-back round.Run
// calls over one population, with fresh bids every round, for dur.
func runOneshot(w workload, seed int64, dur time.Duration) (*e2eRun, error) {
	fx, err := oneshotSetUp(w, seed)
	if err != nil {
		return nil, err
	}
	opts := w.roundOptions()

	runtime.GC()
	run := &e2eRun{before: snap()}
	start := time.Now()
	for k := 0; time.Since(start) < dur; k++ {
		in := fx.oneshotInput(laneBids, k)
		c := clearing{label: k, n: len(in.ids)}
		t := time.Now()
		res, err := fx.runRound(in, opts...)
		c.dur, c.err = time.Since(t), err
		if err == nil {
			c.digest = awardOf(res).digest(k, in.ids)
			c.bytes = res.SubmissionBytes
		}
		run.clearings = append(run.clearings, c)
	}
	run.wall = time.Since(start)
	run.after = snap()
	run.peakRSSMB = peakRSSMB()

	run.failed = gate(fx, run.clearings, func(k int) input { return fx.oneshotInput(laneBids, k) })
	return run, nil
}

// roundOptions are the workload's round.Run options.
func (w workload) roundOptions() []round.Option {
	opts := []round.Option{round.WithWorkers(workers)}
	if w.shards > 0 {
		opts = append(opts, round.WithShards(w.shards))
	}
	return opts
}
