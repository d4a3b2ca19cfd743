package round

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
	"lppa/internal/ttp"
)

// ErrQuorumNotReached reports that a quorum round had fewer usable
// submissions than WithQuorum demanded. It is raised before the
// auctioneer stage runs: by Run's bidder half when encoding leaves too
// few submissions, and — wrapped — by the networked auctioneer
// (internal/transport) when stragglers leave its collection short, so
// callers on either path detect the condition with errors.Is. Clear
// never returns it; it clears whatever it is handed.
var ErrQuorumNotReached = errors.New("round: quorum not reached")

// Input bundles one round's bidder-side inputs: where the bidders are,
// what they bid, how they disguise, and the randomness driving the round.
type Input struct {
	// Points and Bids are indexed by bidder.
	Points []geo.Point
	Bids   [][]uint64
	// Policy is the disguise policy applied to every bidder. WithPolicies
	// overrides it per bidder.
	Policy core.DisguisePolicy
	// Rng drives every random choice of the round: the TTP's key material
	// seed, bid encoding, and the allocator's channel shuffles and tie
	// breaks. Fixing the seed fixes the round at every worker count (see
	// WithWorkers).
	Rng *rand.Rand
}

// Option tunes how Run executes. Options compose; conflicting charging
// modes are rejected by Run.
type Option func(*runConfig) error

type runConfig struct {
	workers     int
	policies    []core.DisguisePolicy
	interactive bool
	secondPrice bool
	shards      int
	quorum      int
	straggler   time.Duration
	reg         *obs.Registry
	tracer      *obs.Tracer
	flight      *obs.FlightRecorder
	state       *EpochState
	sampler     *obs.TraceSampler
	epoch       int
	hasEpoch    bool
	onPhase     func(phase string, d time.Duration)
}

// WithWorkers bounds the goroutines used for submission encoding and
// conflict-graph construction. n == 0 means one worker per available CPU;
// a Run without the option uses one. The count changes only cost: the
// round rng is consumed serially up front (one TTP draw, then one
// encoding seed per bidder in index order), so results are identical for
// every n.
func WithWorkers(n int) Option {
	return func(c *runConfig) error {
		if n < 0 {
			return fmt.Errorf("round: negative worker count %d", n)
		}
		c.workers = n
		return nil
	}
}

// WithPolicies gives each bidder its own disguise policy (the paper lets
// every user pick its own privacy/performance tradeoff), overriding
// Input.Policy. The slice must have one entry per bidder.
func WithPolicies(policies []core.DisguisePolicy) Option {
	return func(c *runConfig) error {
		c.policies = policies
		return nil
	}
}

// WithInteractiveCharging switches the TTP to the interactive design:
// every prospective award is validity-checked before it stands, so a
// (possibly disguised) zero that tops a column wastes only that channel in
// the winner's neighborhood instead of the bidder's whole participation.
// Trades much more TTP online time for auction performance.
func WithInteractiveCharging() Option {
	return func(c *runConfig) error {
		c.interactive = true
		return nil
	}
}

// WithSecondPrice switches charging to second price: the auctioneer
// additionally forwards each award-time runner-up's sealed bid and the TTP
// charges the winner that value.
func WithSecondPrice() Option {
	return func(c *runConfig) error {
		c.secondPrice = true
		return nil
	}
}

// WithObserver records the round into reg: per-phase wall time under
// lppa_round_phase_seconds, round totals (winners, revenue, voided,
// violations, submission bytes, masked digests), and the auctioneer's
// comparison/interning counters (core.Auctioneer.SetObserver). A nil
// registry is the same as omitting the option; results are bit-identical
// either way.
func WithObserver(reg *obs.Registry) Option {
	return func(c *runConfig) error {
		c.reg = reg
		return nil
	}
}

// WithQuorum lets the round degrade gracefully instead of aborting: a
// bidder whose submission cannot be produced (malformed input, or a
// straggler past WithStragglerTimeout) is excluded and the auction runs
// over the remaining population, as long as at least q usable submissions
// remain — otherwise Run returns ErrQuorumNotReached. Excluded bidders
// are reported in Result.Excluded and count as unsatisfied. On fault-free
// inputs the option is a no-op: results are bit-identical to the same
// call without it.
func WithQuorum(q int) Option {
	return func(c *runConfig) error {
		if q < 1 {
			return fmt.Errorf("round: quorum %d, need at least 1", q)
		}
		c.quorum = q
		return nil
	}
}

// WithStragglerTimeout bounds how long the round waits for any bidder's
// submission to materialize; bidders still unfinished when it fires are
// excluded under the WithQuorum rules (the option implies a quorum of the
// full population when WithQuorum is not also given, so a fired timeout
// with no usable exclusions fails the round rather than silently shrinking
// it). Per-bidder seeding is what makes abandoning a straggler safe: no
// other bidder shares its stream. Exclusion by deadline depends on
// scheduling and is therefore not deterministic — it exists so a wedged
// submission source cannot hang the round, which the chaos harness
// exercises over the networked transport.
func WithStragglerTimeout(d time.Duration) Option {
	return func(c *runConfig) error {
		if d <= 0 {
			return fmt.Errorf("round: straggler timeout %v, need positive", d)
		}
		c.straggler = d
		return nil
	}
}

// WithTrace records the round into tracer as one root "round" span with a
// child span per phase (encode, conflict_graph, allocate, charge) —
// mirroring the WithObserver phase timings — plus a straggler_excluded
// event per bidder a degraded quorum round dropped. A nil tracer is the
// same as omitting the option; results are bit-identical either way.
func WithTrace(tracer *obs.Tracer) Option {
	return func(c *runConfig) error {
		c.tracer = tracer
		return nil
	}
}

// WithFlightRecorder auto-dumps the round's trace through fr when the
// round fails, degrades below full attendance, or exceeds fr's latency
// SLO. Requires WithTrace or WithTraceSampler: the recorder dumps the
// spans the tracer collected. A nil recorder is the same as omitting the
// option.
func WithFlightRecorder(fr *obs.FlightRecorder) Option {
	return func(c *runConfig) error {
		c.flight = fr
		return nil
	}
}

// WithTraceSampler traces this round only when the sampler's
// deterministic 1-in-K schedule picks it (the sampler consumes one round
// index per Run). A sampled round behaves exactly like WithTrace with
// the sampler's tracer; an unsampled round runs the untraced path —
// bit-identical awards either way, and the unsampled path costs one
// atomic add over no option at all. Mutually exclusive with WithTrace; a
// nil sampler is the same as omitting the option.
func WithTraceSampler(s *obs.TraceSampler) Option {
	return func(c *runConfig) error {
		c.sampler = s
		return nil
	}
}

// WithEpochNumber tags the round with the epochal service's epoch
// number: the root trace span gets an epoch attribute and flight dumps
// triggered by the round carry the epoch in their filename. Pure
// metadata — results are bit-identical with or without it.
func WithEpochNumber(n int) Option {
	return func(c *runConfig) error {
		c.epoch = n
		c.hasEpoch = true
		return nil
	}
}

// WithPhaseObserver streams each phase's wall time to fn as the round
// executes — the always-on cheap signal behind the ops plane's SLO
// burn-rate monitor, available whether or not the round is traced. fn is
// called on the round goroutine; keep it fast. A nil fn is the same as
// omitting the option; results are bit-identical either way.
func WithPhaseObserver(fn func(phase string, d time.Duration)) Option {
	return func(c *runConfig) error {
		c.onPhase = fn
		return nil
	}
}

// configure applies opts and checks that they compose.
func configure(opts []Option) (runConfig, error) {
	cfg := runConfig{workers: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return cfg, err
		}
	}
	if cfg.interactive && cfg.secondPrice {
		return cfg, fmt.Errorf("round: interactive charging and second-price charging are mutually exclusive")
	}
	if cfg.sampler != nil && cfg.tracer != nil {
		return cfg, fmt.Errorf("round: WithTrace and WithTraceSampler are mutually exclusive")
	}
	if cfg.flight != nil && cfg.tracer == nil && cfg.sampler == nil {
		return cfg, fmt.Errorf("round: WithFlightRecorder requires WithTrace or WithTraceSampler")
	}
	return cfg, nil
}

// buildSamplers returns one disguise sampler per bidder. Bidders with the
// same policy share a sampler (Sample only reads the precomputed CDF);
// policies with P0 ≥ 1 never disguise and get nil.
func buildSamplers(policies []core.DisguisePolicy, bmax uint64) ([]*core.DisguiseSampler, error) {
	out := make([]*core.DisguiseSampler, len(policies))
	cache := map[core.DisguisePolicy]*core.DisguiseSampler{}
	for i, p := range policies {
		if p.P0 >= 1 {
			continue
		}
		s, ok := cache[p]
		if !ok {
			var err error
			if s, err = core.NewDisguiseSampler(p, bmax); err != nil {
				return nil, fmt.Errorf("round: bidder %d disguise: %w", i, err)
			}
			cache[p] = s
		}
		out[i] = s
	}
	return out, nil
}

// Run executes one complete private LPPA round in process:
//
//  1. The TTP derives its key material from the caller's ring.
//  2. Every bidder builds a masked location submission and an advanced
//     masked bid submission under its disguise policy (a quorum round
//     drops failed or straggling bidders); WithShards plans tiles from
//     the kept bidders' points.
//  3. The auctioneer stage (Clear) builds the conflict graph and
//     allocates channels over the masked submissions (Algorithm 3).
//  4. The TTP adjudicates the winners' charges; voided awards are dropped.
//
// The auctioneer has one execution path: the conflict graph comes from the
// inverted candidate index over interned digests (tile-local indexes
// under WithShards), and allocation is the rank-cursor engine over the
// per-column rank memos — bit-identical to the all-pairs graph and to
// Algorithm 3 over the masked comparator, which stay as test oracles.
// Options select the execution and charging shape: WithWorkers for the
// goroutine count, WithShards for tile sharding, WithPolicies for
// per-bidder disguise, WithInteractiveCharging or WithSecondPrice
// (mutually exclusive) for the charging design, WithObserver for
// metrics. A fixed Input.Rng seed fixes the round at every worker count.
func Run(params core.Params, ring *mask.KeyRing, in Input, opts ...Option) (*Result, error) {
	cfg, err := configure(opts)
	if err != nil {
		return nil, err
	}
	ph := cfg.phaser(nil, len(in.Points), params.Channels)
	res, err := run(params, ring, in, &cfg, ph)
	ph.finish(res, err)
	return res, err
}

// run is the Run body: the bidder half, then the auctioneer stage, with
// phase boundaries reported through ph.
func run(params core.Params, ring *mask.KeyRing, in Input, cfg *runConfig, ph *phaser) (*Result, error) {
	n := len(in.Points)
	if n == 0 {
		return nil, fmt.Errorf("round: no bidders")
	}
	if len(in.Bids) != n {
		return nil, fmt.Errorf("round: %d points, %d bid vectors", n, len(in.Bids))
	}
	if in.Rng == nil {
		return nil, fmt.Errorf("round: nil rng")
	}
	policies := cfg.policies
	if policies == nil {
		policies = make([]core.DisguisePolicy, n)
		for i := range policies {
			policies[i] = in.Policy
		}
	} else if len(policies) != n {
		return nil, fmt.Errorf("round: %d points, %d policies", n, len(policies))
	}

	rng := in.Rng
	trusted, err := ttp.FromRing(params, ring, rand.New(rand.NewSource(rng.Int63())))
	if err != nil {
		return nil, err
	}
	samplers, err := buildSamplers(policies, params.BMax)
	if err != nil {
		return nil, err
	}

	ph.phase("encode")
	var (
		locs     []*core.LocationSubmission
		subs     []*core.BidSubmission
		excluded []int
		keep     []int
	)
	workers := mask.Workers(cfg.workers, n)
	if cfg.quorum > 0 || cfg.straggler > 0 {
		// Quorum mode: per-bidder failures and stragglers are excluded
		// instead of aborting the round, down to the quorum floor.
		effQuorum := cfg.quorum
		if effQuorum == 0 {
			effQuorum = n
		}
		if effQuorum > n {
			return nil, fmt.Errorf("round: quorum %d exceeds population %d", effQuorum, n)
		}
		var errs []error
		locs, subs, errs = encodeTolerant(params, ring, in.Points, in.Bids, samplers, rng, workers, cfg.straggler)
		for i := 0; i < n; i++ {
			if errs[i] == nil && locs[i] != nil && subs[i] != nil {
				keep = append(keep, i)
			} else {
				excluded = append(excluded, i)
			}
		}
		if len(keep) < effQuorum {
			return nil, fmt.Errorf("%w: %d of %d usable submissions, need %d",
				ErrQuorumNotReached, len(keep), n, effQuorum)
		}
		if len(excluded) > 0 {
			locs, subs = compact(locs, keep), compact(subs, keep)
		}
	} else if locs, subs, err = encodeSubmissions(params, ring, in.Points, in.Bids, samplers, rng, workers); err != nil {
		return nil, err
	}

	var plan *core.ShardPlan
	if cfg.shards > 0 {
		// The planner groups the population — the kept population, under
		// a compacted quorum round — by masked coarse-tile digest.
		ph.phase("plan")
		pts := in.Points
		if len(excluded) > 0 {
			pts = compact(pts, keep)
		}
		if plan, err = planShardsWith(cfg.state, params, ring, pts, cfg.shards); err != nil {
			return nil, err
		}
	}

	res, err := clearStage(params, locs, subs, rng, trusted, cfg, ph, plan)
	if err != nil || len(excluded) == 0 {
		return res, err
	}
	// A compacted quorum round allocated over the surviving population;
	// translate assignment indices back to original bidder ids so callers
	// see one stable numbering. Outcome.Bidders counts the full
	// population, so excluded bidders depress satisfaction as they should.
	for i := range res.Outcome.Assignments {
		res.Outcome.Assignments[i].Bidder = keep[res.Outcome.Assignments[i].Bidder]
	}
	res.Outcome.Bidders = n
	res.Excluded = excluded
	return res, nil
}

// compact returns the elements of xs at the indices keep, in order.
func compact[T any](xs []T, keep []int) []T {
	out := make([]T, len(keep))
	for ci, i := range keep {
		out[ci] = xs[i]
	}
	return out
}
