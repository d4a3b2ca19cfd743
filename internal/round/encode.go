package round

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
)

// encoder is one goroutine's bidder-side encode state over a round's
// inputs: a location encoder and a bid encoder re-armed per bidder, both
// keeping their keyed HMAC states (the bid encoder also its AES-GCM)
// across every bidder the goroutine encodes. Every encode shape runs its
// bidders through the same encoder methods; the shapes differ only in
// which rng a bidder draws from and how bidders spread over goroutines.
type encoder struct {
	params   core.Params
	ring     *mask.KeyRing
	points   []geo.Point
	bids     [][]uint64
	samplers []*core.DisguiseSampler

	loc *core.LocationEncoder // built on first use
	bid *core.BidEncoder      // built on first use, re-armed per bidder after
	rng *rand.Rand            // seeded shapes: the current bidder's stream
}

func newEncoder(params core.Params, ring *mask.KeyRing, points []geo.Point, bids [][]uint64,
	samplers []*core.DisguiseSampler) *encoder {
	return &encoder{params: params, ring: ring, points: points, bids: bids, samplers: samplers}
}

// fork returns an encoder over the same inputs with state of its own, for
// another goroutine.
func (e *encoder) fork() *encoder {
	return newEncoder(e.params, e.ring, e.points, e.bids, e.samplers)
}

// location builds bidder i's masked location submission.
func (e *encoder) location(i int) (*core.LocationSubmission, error) {
	if e.loc == nil {
		loc, err := core.NewLocationEncoder(e.params, e.ring)
		if err != nil {
			return nil, fmt.Errorf("round: bidder %d location: %w", i, err)
		}
		e.loc = loc
	}
	sub, err := e.loc.Encode(e.points[i])
	if err != nil {
		return nil, fmt.Errorf("round: bidder %d location: %w", i, err)
	}
	return sub, nil
}

// bidVector builds bidder i's masked bid submission, drawing every random
// choice — and the sealing nonces — from rng.
func (e *encoder) bidVector(i int, rng *rand.Rand) (*core.BidSubmission, error) {
	if e.bid == nil {
		enc, err := core.NewBidEncoder(e.params, e.ring, e.samplers[i], rng)
		if err != nil {
			return nil, fmt.Errorf("round: bidder %d encoder: %w", i, err)
		}
		e.bid = enc
	} else {
		e.bid.Rearm(e.samplers[i], rng)
	}
	sub, err := e.bid.Encode(e.bids[i], rng)
	if err != nil {
		return nil, fmt.Errorf("round: bidder %d bids: %w", i, err)
	}
	return sub, nil
}

// bidder builds both of bidder i's submissions and their wire size.
func (e *encoder) bidder(i int, rng *rand.Rand) (*core.LocationSubmission, *core.BidSubmission, int, error) {
	loc, err := e.location(i)
	if err != nil {
		return nil, nil, 0, err
	}
	sub, err := e.bidVector(i, rng)
	if err != nil {
		return nil, nil, 0, err
	}
	return loc, sub, core.SubmissionBytes(sub) + core.LocationBytes(loc), nil
}

// seeded returns the goroutine's rng re-seeded to seed: the seeded
// pipeline's per-bidder stream, identical to rand.New(rand.NewSource(seed))
// without allocating a fresh source per bidder.
func (e *encoder) seeded(seed int64) *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(seed))
	} else {
		e.rng.Seed(seed)
	}
	return e.rng
}

// stripe runs fn for every bidder on workers goroutines — bidder i on
// goroutine i mod workers, each goroutine on its own fork of e — and
// returns the group to wait on.
func (e *encoder) stripe(workers int, fn func(e *encoder, i int)) *sync.WaitGroup {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(local *encoder, w int) {
			defer wg.Done()
			for i := w; i < len(e.points); i += workers {
				fn(local, i)
			}
		}(e.fork(), w)
	}
	return &wg
}

// drawSeeds consumes one encoding seed per bidder from rng, in bidder
// order.
func drawSeeds(rng *rand.Rand, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

// encodeSerial produces every bidder's submissions on the calling
// goroutine, threading the round rng through bidders in index order — the
// legacy RunPrivate randomness shape, kept bit-exact for the deprecated
// wrappers.
func encodeSerial(params core.Params, ring *mask.KeyRing, points []geo.Point, bids [][]uint64,
	samplers []*core.DisguiseSampler, rng *rand.Rand) ([]*core.LocationSubmission, []*core.BidSubmission, int, error) {
	n := len(points)
	e := newEncoder(params, ring, points, bids, samplers)
	locs := make([]*core.LocationSubmission, n)
	subs := make([]*core.BidSubmission, n)
	bytesTotal := 0
	// Location masking draws no randomness and runs under the ring's shared
	// key, so equal points yield byte-identical immutable submissions —
	// co-located bidders share one. The bid encoder still consumes the rng
	// stream bidder by bidder, so the transcript is unchanged.
	locMemo := make(map[geo.Point]*core.LocationSubmission, n)
	for i := 0; i < n; i++ {
		loc := locMemo[points[i]]
		if loc == nil {
			var err error
			if loc, err = e.location(i); err != nil {
				return nil, nil, 0, err
			}
			locMemo[points[i]] = loc
		}
		locs[i] = loc
		sub, err := e.bidVector(i, rng)
		if err != nil {
			return nil, nil, 0, err
		}
		subs[i] = sub
		bytesTotal += core.SubmissionBytes(sub) + core.LocationBytes(loc)
	}
	return locs, subs, bytesTotal, nil
}

// encodeSubmissions produces every bidder's location and bid submission.
// Encoding seeds are drawn from rng serially in bidder order before any
// goroutine starts; bidder i's submissions then depend only on seeds[i],
// so the striped worker pool yields byte-identical results for every
// worker count. Shared samplers (bidders with equal policies) are safe:
// DisguiseSampler.Sample only reads the precomputed CDF.
func encodeSubmissions(params core.Params, ring *mask.KeyRing, points []geo.Point, bids [][]uint64,
	samplers []*core.DisguiseSampler, rng *rand.Rand, workers int) ([]*core.LocationSubmission, []*core.BidSubmission, int, error) {
	n := len(points)
	seeds := drawSeeds(rng, n)

	// Location masking draws no randomness; the parallel batch builder is
	// output-identical to per-bidder calls.
	locs, err := core.NewLocationSubmissions(params, ring, points, workers)
	if err != nil {
		return nil, nil, 0, err
	}

	subs := make([]*core.BidSubmission, n)
	errs := make([]error, n)
	encodeOne := func(e *encoder, i int) {
		subs[i], errs[i] = e.bidVector(i, e.seeded(seeds[i]))
	}
	e := newEncoder(params, ring, points, bids, samplers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			encodeOne(e, i)
		}
	} else {
		e.stripe(workers, encodeOne).Wait()
	}
	bytesTotal := 0
	for i, err := range errs {
		if err != nil {
			return nil, nil, 0, err
		}
		bytesTotal += core.SubmissionBytes(subs[i]) + core.LocationBytes(locs[i])
	}
	return locs, subs, bytesTotal, nil
}

// encodeTolerant is the quorum-mode encoder: per-bidder failures are
// recorded instead of aborting, and — on the seeded pipeline — bidders
// that miss the straggler deadline are abandoned (their goroutines finish
// into a discarded collector slot). Fault-free output is bit-identical to
// encodeSerial (seeded=false) or encodeSubmissions (seeded=true): the rng
// is consumed in exactly the same order, and the per-bidder location
// builder produces the same bytes as the batch builder (location masking
// draws no randomness).
func encodeTolerant(params core.Params, ring *mask.KeyRing, points []geo.Point, bids [][]uint64,
	samplers []*core.DisguiseSampler, rng *rand.Rand, workers int, seeded bool, deadline time.Duration,
) ([]*core.LocationSubmission, []*core.BidSubmission, []int, []error) {
	n := len(points)
	locs := make([]*core.LocationSubmission, n)
	subs := make([]*core.BidSubmission, n)
	bytesPer := make([]int, n)
	errs := make([]error, n)
	e := newEncoder(params, ring, points, bids, samplers)

	if !seeded {
		// Serial shape: one rng threaded through bidders in index order,
		// exactly like encodeSerial, but a failed bidder is skipped
		// instead of aborting the population. No deadline here — Run
		// rejects WithStragglerTimeout on the serial pipeline.
		for i := 0; i < n; i++ {
			locs[i], subs[i], bytesPer[i], errs[i] = e.bidder(i, rng)
		}
		return locs, subs, bytesPer, errs
	}

	// Seeded shape: the round rng is consumed serially up front (one seed
	// per bidder), after which every bidder encodes independently. Results
	// land in the collector under its lock so a deadline snapshot never
	// races a straggling worker.
	seeds := drawSeeds(rng, n)
	var (
		mu       sync.Mutex
		done     = make([]bool, n)
		arrivals = make(chan struct{}, n)
	)
	e.stripe(workers, func(e *encoder, i int) {
		loc, sub, b, err := e.bidder(i, e.seeded(seeds[i]))
		mu.Lock()
		locs[i], subs[i], bytesPer[i], errs[i] = loc, sub, b, err
		done[i] = true
		mu.Unlock()
		arrivals <- struct{}{}
	})
	var timeout <-chan time.Time
	if deadline > 0 {
		timeout = time.After(deadline)
	}
	landed := 0
collect:
	for landed < n {
		select {
		case <-arrivals:
			landed++
		case <-timeout:
			break collect
		}
	}
	// Snapshot under the lock: stragglers keep encoding into the shared
	// slices afterwards, but this round only ever reads the copies.
	mu.Lock()
	defer mu.Unlock()
	clocs := make([]*core.LocationSubmission, n)
	csubs := make([]*core.BidSubmission, n)
	cbytes := make([]int, n)
	cerrs := make([]error, n)
	for i := 0; i < n; i++ {
		if !done[i] {
			cerrs[i] = fmt.Errorf("round: bidder %d missed straggler deadline %v", i, deadline)
			continue
		}
		clocs[i], csubs[i], cbytes[i], cerrs[i] = locs[i], subs[i], bytesPer[i], errs[i]
	}
	return clocs, csubs, cbytes, cerrs
}
