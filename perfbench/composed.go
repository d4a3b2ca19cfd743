package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lppa/internal/auction"
	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/transport"
	"lppa/internal/ttp"
)

// layers is one composed clearing's cost, layer by layer, timed by the
// benchmark around its calls into each layer's public functions.
type layers struct {
	wall     time.Duration
	encode   time.Duration // core bidder side
	wireEnc  time.Duration // transport, bidder side
	wireDec  time.Duration // transport, auctioneer side
	ingest   time.Duration // core.NewAuctioneer / Reset
	plan     time.Duration // tile planner
	graph    time.Duration // Auctioneer.ConflictGraph
	allocate time.Duration // Auctioneer.Allocate
	ttp      time.Duration // ttp.FromRing, ChargeRequests, ProcessBatch

	encodeAllocs   uint64
	wireAllocs     uint64
	allocateAllocs uint64

	bidders    int
	frameBytes int
	protoBytes int // core.SubmissionBytes + core.LocationBytes
	digests    int
	tiles      int
	edges      int
	winners    int
	requests   int
	voided     int
}

// self is the sum of the layers' self times.
func (l *layers) self() time.Duration {
	return l.encode + l.wireEnc + l.wireDec + l.ingest + l.plan + l.graph + l.allocate + l.ttp
}

func (l *layers) add(o layers) {
	l.wall += o.wall
	l.encode += o.encode
	l.wireEnc += o.wireEnc
	l.wireDec += o.wireDec
	l.ingest += o.ingest
	l.plan += o.plan
	l.graph += o.graph
	l.allocate += o.allocate
	l.ttp += o.ttp
	l.encodeAllocs += o.encodeAllocs
	l.wireAllocs += o.wireAllocs
	l.allocateAllocs += o.allocateAllocs
	l.bidders += o.bidders
	l.frameBytes += o.frameBytes
	l.protoBytes += o.protoBytes
	l.digests += o.digests
	l.tiles += o.tiles
	l.edges += o.edges
	l.winners += o.winners
	l.requests += o.requests
	l.voided += o.voided
}

// composer clears rounds by calling each layer itself, in round.Run's
// seeded order, with a wire round trip between bidders and auctioneer.
// With reuse it keeps one auctioneer (Reset) and one tile grid and
// masker across clearings, as the epoch service does.
type composer struct {
	fx     *fixture
	shards int
	reuse  bool

	auc      *core.Auctioneer
	grid     geo.TileGrid
	tileMask *mask.Masker
}

// clear runs one clearing of in through the layers and returns its award.
func (c *composer) clear(in input) (award, layers, error) {
	params, ring := c.fx.params, c.fx.ring
	n := len(in.pts)
	w := mask.Workers(workers, n)
	l := layers{bidders: n}
	rng := rand.New(rand.NewSource(in.seed))
	start := time.Now()

	t := time.Now()
	trusted, err := ttp.FromRing(params, ring, rand.New(rand.NewSource(rng.Int63())))
	l.ttp = time.Since(t)
	if err != nil {
		return award{}, l, fmt.Errorf("ttp key material: %w", err)
	}

	m := mallocs()
	t = time.Now()
	locs, subs, err := c.encode(in, rng, w)
	l.encode = time.Since(t)
	l.encodeAllocs = mallocs() - m
	if err != nil {
		return award{}, l, err
	}

	m = mallocs()
	t = time.Now()
	frames, err := wireEncode(locs, subs, w)
	l.wireEnc = time.Since(t)
	if err != nil {
		return award{}, l, err
	}
	t = time.Now()
	dlocs, dsubs, err := wireDecode(params, frames, w)
	l.wireDec = time.Since(t)
	l.wireAllocs = mallocs() - m
	if err != nil {
		return award{}, l, err
	}

	t = time.Now()
	auc, err := c.ingest(dlocs, dsubs)
	l.ingest = time.Since(t)
	if err != nil {
		return award{}, l, err
	}
	auc.SetWorkers(w)

	if c.shards > 0 {
		t = time.Now()
		plan, err := c.plan(in.pts)
		if err == nil {
			err = auc.SetShardPlan(plan)
		}
		l.plan = time.Since(t)
		if err != nil {
			return award{}, l, fmt.Errorf("shard plan: %w", err)
		}
		l.tiles = len(plan.Tiles)
	}

	t = time.Now()
	g := auc.ConflictGraph()
	l.graph = time.Since(t)

	m = mallocs()
	t = time.Now()
	assignments, err := auc.Allocate(rng)
	l.allocate = time.Since(t)
	l.allocateAllocs = mallocs() - m
	if err != nil {
		return award{}, l, fmt.Errorf("allocate: %w", err)
	}

	t = time.Now()
	results := trusted.ProcessBatch(auc.ChargeRequests(assignments))
	l.ttp += time.Since(t)
	a := tally(assignments, results)
	l.wall = time.Since(start)

	for i := range frames {
		l.frameBytes += len(frames[i])
		l.protoBytes += core.SubmissionBytes(subs[i]) + core.LocationBytes(locs[i])
	}
	for _, d := range auc.DigestCounts() {
		l.digests += d
	}
	l.edges = g.Edges()
	l.winners = len(assignments)
	l.requests = len(results)
	l.voided = a.voided
	return a, l, nil
}

// tally folds the TTP's verdicts into the award the way round.Run does:
// valid awards are charged, invalid ones voided.
func tally(assignments []auction.Assignment, results []ttp.ChargeResult) award {
	a := award{assignments: assignments, charges: make([]uint64, len(assignments))}
	for i, r := range results {
		switch {
		case r.Err != nil:
		case !r.Valid:
			a.voided++
		default:
			a.charges[i] = r.Price
			a.revenue += r.Price
			a.satisfied++
		}
	}
	return a
}

// striped runs fn(worker, i) for i in [0, n) over w goroutines, bidder i
// on worker i mod w, and waits for them.
func striped(w, n int, fn func(worker, i int)) {
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += w {
				fn(k, i)
			}
		}(k)
	}
	wg.Wait()
}

// encode is the bidders' side: one encoding seed per bidder drawn in
// index order, the batch location masker, and per-bidder bid encoders.
func (c *composer) encode(in input, rng *rand.Rand, w int) ([]*core.LocationSubmission, []*core.BidSubmission, error) {
	params, ring := c.fx.params, c.fx.ring
	var sampler *core.DisguiseSampler
	if c.fx.policy.P0 < 1 {
		var err error
		if sampler, err = core.NewDisguiseSampler(c.fx.policy, params.BMax); err != nil {
			return nil, nil, err
		}
	}
	n := len(in.pts)
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	locs, err := core.NewLocationSubmissions(params, ring, in.pts, w)
	if err != nil {
		return nil, nil, err
	}
	subs := make([]*core.BidSubmission, n)
	errs := make([]error, w)
	striped(w, n, func(k, i int) {
		r := rand.New(rand.NewSource(seeds[i]))
		enc, err := core.NewBidEncoder(params, ring, sampler, r)
		if err == nil {
			subs[i], err = enc.Encode(in.bids[i], r)
		}
		if err != nil && errs[k] == nil {
			errs[k] = fmt.Errorf("bidder %d encode: %w", i, err)
		}
	})
	return locs, subs, errors.Join(errs...)
}

// wireEncode frames every bidder's submission as it would leave the
// bidder.
func wireEncode(locs []*core.LocationSubmission, subs []*core.BidSubmission, w int) ([][]byte, error) {
	frames := make([][]byte, len(subs))
	errs := make([]error, w)
	striped(w, len(subs), func(k, i int) {
		f, err := transport.EncodeFrame(transport.KindSubmission, transport.NewSubmission(i, locs[i], subs[i]))
		frames[i] = f
		if err != nil && errs[k] == nil {
			errs[k] = fmt.Errorf("bidder %d frame: %w", i, err)
		}
	})
	return frames, errors.Join(errs...)
}

// wireDecode is the auctioneer's intake of the frames: decode, validate,
// and rebuild the protocol objects the auctioneer ingests.
func wireDecode(params core.Params, frames [][]byte, w int) ([]*core.LocationSubmission, []*core.BidSubmission, error) {
	locs := make([]*core.LocationSubmission, len(frames))
	subs := make([]*core.BidSubmission, len(frames))
	errs := make([]error, w)
	striped(w, len(frames), func(k, i int) {
		err := func() error {
			env, dec, err := transport.DecodeFrame(frames[i])
			if err != nil {
				return err
			}
			if env.Kind != transport.KindSubmission {
				return fmt.Errorf("frame kind %d, want a submission", env.Kind)
			}
			var s transport.Submission
			if err := dec.Decode(&s); err != nil {
				return err
			}
			if err := s.Validate(params); err != nil {
				return err
			}
			if s.BidderID != i {
				return fmt.Errorf("frame carries bidder %d", s.BidderID)
			}
			locs[i], subs[i] = s.Parts()
			return nil
		}()
		if err != nil && errs[k] == nil {
			errs[k] = fmt.Errorf("bidder %d decode: %w", i, err)
		}
	})
	return locs, subs, errors.Join(errs...)
}

// ingest hands the decoded submissions to the auctioneer.
func (c *composer) ingest(locs []*core.LocationSubmission, subs []*core.BidSubmission) (*core.Auctioneer, error) {
	if c.reuse && c.auc != nil {
		return c.auc, c.auc.Reset(locs, subs)
	}
	auc, err := core.NewAuctioneer(c.fx.params, locs, subs)
	if err == nil && c.reuse {
		c.auc = auc
	}
	return auc, err
}

// plan groups bidders into tiles by masked coarse-tile digest, as the
// round layer's tile planner does: a home tile per bidder, plus a visitor
// entry in every other occupied tile its interference square touches.
func (c *composer) plan(pts []geo.Point) (*core.ShardPlan, error) {
	params := c.fx.params
	if !c.reuse || c.tileMask == nil {
		tg, err := geo.NewTileGrid(params.MaxX, params.MaxY, params.Lambda, c.shards)
		if err != nil {
			return nil, err
		}
		m, err := mask.NewMasker(c.fx.ring.TileKey())
		if err != nil {
			return nil, err
		}
		c.grid, c.tileMask = tg, m
	}
	delta := 2*params.Lambda - 1
	plan := &core.ShardPlan{Home: make([]int, len(pts))}
	slot := make(map[mask.Digest]int)
	for i, p := range pts {
		d := c.tileMask.Mask(c.grid.ID(c.grid.TileOf(p)))
		s, ok := slot[d]
		if !ok {
			s = len(plan.Tiles)
			slot[d] = s
			plan.Tiles = append(plan.Tiles, core.ShardTile{})
		}
		plan.Tiles[s].Residents = append(plan.Tiles[s].Residents, i)
		plan.Home[i] = s
	}
	for i, p := range pts {
		for _, id := range c.grid.Touched(p, delta)[1:] {
			if s, ok := slot[c.tileMask.Mask(id)]; ok {
				plan.Tiles[s].Visitors = append(plan.Tiles[s].Visitors, i)
			}
		}
	}
	return plan, nil
}
