package round

import (
	"errors"
	"math/rand"
	"strconv"
	"time"

	"lppa/internal/auction"
	"lppa/internal/core"
	"lppa/internal/mask"
	"lppa/internal/obs"
	"lppa/internal/ttp"
)

// Charger is the auctioneer stage's batch-charging backend: it
// adjudicates one round's charge requests and returns one verdict per
// request, in request order. The in-process *ttp.TTP implements it, and
// so does the wire server's client of a remote TTP. A charger that also
// validates single awards in process (ValidateAward, as *ttp.TTP does)
// supports WithInteractiveCharging.
type Charger interface {
	Charge(reqs []core.ChargeRequest) ([]ttp.ChargeResult, error)
}

// Clear is the auctioneer stage of one round: over PPBS-masked
// submissions only — bidder i's are locs[i] and bids[i] — it builds the
// conflict graph, allocates channels (Algorithm 3) with rng, has the
// charger adjudicate the winners and tallies the charges. Run is
// bidder-side encoding followed by this stage; the wire server
// (internal/transport) calls Clear on the submissions it received.
//
// root, when non-nil, is the caller's round span: the phase spans hang
// off it under WithTrace's tracer, and the caller ends it. Options are
// Run's; the bidder-side ones have nothing to act on, WithShards is
// rejected (its plan is computed from points), and
// WithInteractiveCharging needs a charger that validates awards.
func Clear(params core.Params, locs []*core.LocationSubmission, bids []*core.BidSubmission,
	rng *rand.Rand, charger Charger, root *obs.Span, opts ...Option) (*Result, error) {
	cfg, err := configure(opts)
	if err != nil {
		return nil, err
	}
	if cfg.shards > 0 {
		return nil, errors.New("round: WithShards plans tiles from bidder points; Clear runs unsharded")
	}
	if rng == nil || charger == nil {
		return nil, errors.New("round: Clear needs an rng and a charger")
	}
	ph := cfg.phaser(root, len(locs), params.Channels)
	res, err := clearStage(params, locs, bids, rng, charger, &cfg, ph, nil)
	ph.finish(res, err)
	return res, err
}

// clearStage is the stage body shared by Clear and Run. ph carries the
// round's phase timer and spans; plan, when non-nil, is Run's tile plan
// (shard.go). Every error return leaves ph for the caller's finish to
// stop.
func clearStage(params core.Params, locs []*core.LocationSubmission, bids []*core.BidSubmission,
	rng *rand.Rand, charger Charger, cfg *runConfig, ph *phaser, plan *core.ShardPlan) (*Result, error) {
	// The interactive design's validity oracle: one sealed bid in, one bit
	// out, in process.
	validator, ok := charger.(interface{ ValidateAward(sealed []byte) bool })
	if cfg.interactive && !ok {
		return nil, errors.New("round: interactive charging needs a charger that validates awards in process")
	}
	auc, err := cfg.state.auctioneer(params, locs, bids)
	if err != nil {
		return nil, err
	}
	n := len(locs)
	workers := mask.Workers(cfg.workers, n)
	auc.SetWorkers(workers)
	auc.SetObserver(cfg.reg)

	if plan != nil {
		// Tile-sharded execution: the auctioneer builds graphs and memos
		// per tile. Bit-identity is pinned by the shard equivalence grid.
		if ph.tracer != nil {
			plan.OnShard = shardSpans(ph)
		}
		if err := auc.SetShardPlan(plan); err != nil {
			return nil, err
		}
	}

	// The graph build is rng-free, so forcing it here (instead of letting
	// the allocator build it lazily) changes nothing except giving the
	// phase its own wall-time series.
	ph.phase("conflict_graph")
	// Candidate-generation setup (interning, plus inverted-index posting
	// when unsharded) gets its own child span under conflict_graph, so
	// traces separate index cost from confirm cost. Metrics-wise it stays
	// inside the conflict_graph phase.
	var sp *obs.Span
	if ph.tracer != nil {
		sp = ph.tracer.StartSpan("candidate_generation", ph.cur.Context())
	}
	auc.PrepareCandidates()
	sp.End()
	auc.ConflictGraph()

	ph.phase("allocate")
	res := &Result{Auctioneer: auc}
	var (
		assignments []auction.Assignment
		awards      []auction.Award
	)
	switch {
	case cfg.secondPrice:
		if awards, err = auc.AllocateAwards(rng); err != nil {
			return nil, err
		}
		assignments = make([]auction.Assignment, len(awards))
		for i, aw := range awards {
			assignments[i] = aw.Assignment
		}
	case cfg.interactive:
		// The validity oracle interleaves TTP round trips with the
		// allocation sweep, so their cost lands in the allocate phase —
		// that is the interactive design's point.
		validity := func(i, r int) bool { return validator.ValidateAward(auc.SealedBid(i, r)) }
		var voided []auction.Assignment
		if assignments, voided, err = auc.AllocateWithValidity(validity, rng); err != nil {
			return nil, err
		}
		res.Voided = len(voided)
	default:
		// Batch charging (the paper's section V.C.2): the allocation
		// completes blindly, then the TTP adjudicates all winners at once.
		// A zero that won is voided after the fact — the award already
		// consumed the bidder's row and the channel slot, which is exactly
		// the performance cost Fig. 5(e)(f) charts.
		if assignments, err = auc.Allocate(rng); err != nil {
			return nil, err
		}
	}
	res.Outcome = &auction.Outcome{
		Assignments: assignments,
		Charges:     make([]uint64, len(assignments)),
		Bidders:     n,
	}

	ph.phase("charge")
	var reqs []core.ChargeRequest
	if cfg.secondPrice {
		reqs = auc.ChargeRequestsSecondPrice(awards)
	} else {
		reqs = auc.ChargeRequests(assignments)
	}
	verdicts, err := charger.Charge(reqs)
	if err != nil {
		return nil, err
	}
	tallyCharges(res, verdicts)
	ph.stop()

	var digests int
	res.SubmissionBytes, digests = transcriptSize(locs, bids)
	if ro := newRoundObs(cfg.reg); ro != nil {
		ro.note(res, workers, digests)
	}
	return res, nil
}

// tallyCharges folds the charger's verdicts into the outcome: valid
// awards are charged and satisfied, invalid ones voided, errors counted as
// protocol violations.
func tallyCharges(res *Result, verdicts []ttp.ChargeResult) {
	out := res.Outcome
	res.Valid = make([]bool, len(verdicts))
	for i, r := range verdicts {
		switch {
		case r.Err != nil:
			res.Violations++
		case !r.Valid:
			res.Voided++
		default:
			out.Charges[i] = r.Price
			out.Revenue += r.Price
			out.SatisfiedBidders++
			res.Valid[i] = true
		}
	}
}

// transcriptSize measures the submissions the stage received: how many
// masked digests they hold (location families and covers plus
// per-channel bid families and covers) and their wire size in bytes —
// the digests plus the sealed bids, as core.LocationBytes and
// core.SubmissionBytes count them (Theorem 4).
func transcriptSize(locs []*core.LocationSubmission, bids []*core.BidSubmission) (bytes, digests int) {
	for _, l := range locs {
		digests += l.XFamily.Len() + l.YFamily.Len() + l.XRange.Len() + l.YRange.Len()
	}
	for _, s := range bids {
		for r := range s.Channels {
			cb := &s.Channels[r]
			digests += cb.Family.Len() + cb.Range.Len()
			bytes += len(cb.Sealed)
		}
	}
	return bytes + digests*mask.DigestSize, digests
}

// roundObs caches the round-level metric handles for one round.
type roundObs struct {
	rounds, winners, revenue, voided, violations *obs.Counter
	bytes, digests                               *obs.Counter
	workers                                      *obs.Gauge
}

func newRoundObs(reg *obs.Registry) *roundObs {
	if reg == nil {
		return nil
	}
	return &roundObs{
		rounds:     reg.Counter("lppa_rounds_total"),
		winners:    reg.Counter("lppa_round_winners_total"),
		revenue:    reg.Counter("lppa_round_revenue_total"),
		voided:     reg.Counter("lppa_round_voided_total"),
		violations: reg.Counter("lppa_round_violations_total"),
		bytes:      reg.Counter("lppa_round_submission_bytes_total"),
		digests:    reg.Counter("lppa_mask_digests_total"),
		workers:    reg.Gauge("lppa_round_workers"),
	}
}

// note folds one cleared round into the registry.
func (o *roundObs) note(res *Result, workers, digests int) {
	o.rounds.Inc()
	o.winners.Add(uint64(res.Outcome.SatisfiedBidders))
	o.revenue.Add(res.Outcome.Revenue)
	o.voided.Add(uint64(res.Voided))
	o.violations.Add(uint64(res.Violations))
	o.bytes.Add(uint64(res.SubmissionBytes))
	o.digests.Add(uint64(digests))
	o.workers.Set(int64(workers))
}

// phaser pairs the metrics PhaseTimer with tracing spans so both views of
// the round agree on phase boundaries. With a nil tracer every span field
// stays nil and the span calls are no-ops, so an untraced round runs the
// pre-tracing code path bit-identically.
type phaser struct {
	timer  *obs.PhaseTimer
	tracer *obs.Tracer
	root   *obs.Span
	// ownRoot marks a root this phaser opened: finish ends it and hands
	// the trace to the flight recorder. A caller's root is the caller's.
	ownRoot  bool
	flight   *obs.FlightRecorder
	cur      *obs.Span
	onPhase  func(phase string, d time.Duration)
	curName  string
	curStart time.Time
	epoch    int
	hasEpoch bool
}

// phaser opens one round's phase timer and, when the round is traced,
// its root span: root when the caller passes one, else a fresh "round"
// trace. A trace sampler consumes its round index here and, when it
// picks the round, supplies the tracer.
func (c *runConfig) phaser(root *obs.Span, bidders, channels int) *phaser {
	p := &phaser{
		timer: c.reg.PhaseTimer("lppa_round_phase_seconds", nil), tracer: c.tracer, root: root,
		flight: c.flight, onPhase: c.onPhase, epoch: c.epoch, hasEpoch: c.hasEpoch,
	}
	var sampleIdx uint64
	if c.sampler != nil {
		// The sampler consumes one round index whether or not it samples;
		// an unsampled round proceeds on the untraced (nil-tracer) path.
		if tr, idx, ok := c.sampler.Next(); ok {
			p.tracer, sampleIdx = tr, idx
		}
	}
	if p.tracer == nil || root != nil {
		return p
	}
	p.root, p.ownRoot = p.tracer.StartTrace("round",
		obs.L("bidders", strconv.Itoa(bidders)),
		obs.L("channels", strconv.Itoa(channels))), true
	if c.hasEpoch {
		p.root.Annotate("epoch", strconv.Itoa(c.epoch))
	}
	if c.sampler != nil {
		p.root.Annotate("sample_index", strconv.FormatUint(sampleIdx, 10))
	}
	return p
}

// phase closes the current phase (timer and span) and opens the named one
// as a child of the round root.
func (p *phaser) phase(name string) {
	p.timer.Phase(name)
	if p.onPhase != nil {
		now := time.Now()
		if p.curName != "" {
			p.onPhase(p.curName, now.Sub(p.curStart))
		}
		p.curName, p.curStart = name, now
	}
	p.cur.End()
	p.cur = nil
	if p.tracer != nil {
		p.cur = p.tracer.StartSpan(name, p.root.Context())
	}
}

// stop closes the current phase without opening another (round over or
// aborting). Stopping a stopped phaser is a no-op.
func (p *phaser) stop() {
	p.timer.Stop()
	if p.onPhase != nil && p.curName != "" {
		p.onPhase(p.curName, time.Since(p.curStart))
		p.curName = ""
	}
	p.cur.End()
	p.cur = nil
}

// finish stops the round's phases, stamps res with the trace, and — when
// the phaser owns the root span — closes it, recording the failure and
// any quorum exclusions, and hands the trace to the flight recorder.
func (p *phaser) finish(res *Result, err error) {
	p.stop()
	if p.root == nil {
		return
	}
	if res != nil {
		res.Trace = p.root.Ctx.Trace
	}
	if !p.ownRoot {
		return
	}
	if err != nil {
		p.root.SetError(err.Error())
	}
	degraded := res != nil && len(res.Excluded) > 0
	if degraded {
		for _, id := range res.Excluded {
			p.root.Event("straggler_excluded", obs.L("bidder", strconv.Itoa(id)))
		}
	}
	p.root.End()
	if p.flight == nil {
		return
	}
	rt := &obs.RoundTrace{
		Label:    "round",
		Degraded: degraded,
		Epoch:    p.epoch,
		HasEpoch: p.hasEpoch,
		Duration: p.root.Duration,
		Spans:    p.tracer.TakeTrace(p.root.Ctx.Trace),
	}
	if err != nil {
		rt.Err = err.Error()
	}
	_, _ = p.flight.Record(rt)
}
