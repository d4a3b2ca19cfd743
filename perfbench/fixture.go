package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strconv"

	"lppa/internal/auction"
	"lppa/internal/core"
	"lppa/internal/dataset"
	"lppa/internal/epoch"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/round"
)

// Seed lanes: every consumer of the workload seed draws from its own
// splitmix stream, so adding draws to one input never perturbs another.
const (
	lanePopulation = 0x706f70 // bidder placement
	laneBids       = 0x626964 // one-shot per-round valuations
	laneRound      = 0x726e64 // one-shot per-round protocol rng
	laneWarm       = 0x77726d // warm-up clearings
	laneSchedule   = 0x736368 // service arrival/churn schedule, per pass
	laneIntakeBids = 0x696e62 // service per-event valuations, per pass
	laneService    = 0x737663 // service seed (roots epoch.EpochSeed)
)

// stream derives the seed of draw k on one lane.
func stream(seed, lane int64, k int) int64 { return epoch.EpochSeed(seed^lane, k) }

// fixture is the protocol agreement and population a run executes under,
// a pure function of the workload seed and population size.
type fixture struct {
	seed   int64
	params core.Params
	ring   *mask.KeyRing
	policy core.DisguisePolicy
	points []geo.Point
}

// newFixture builds the mixed-density population on a 100×100 grid with
// 8 channels, the key ring, and the disguise policy every bidder uses.
func newFixture(seed int64, n, channels int) (*fixture, error) {
	mix, err := dataset.ParseDensity("mixed")
	if err != nil {
		return nil, err
	}
	grid := geo.Grid{Rows: 100, Cols: 100, SideMeters: 75_000}
	params := core.Params{
		Channels: channels, Lambda: mix.Lambda,
		MaxX: uint64(grid.Cols - 1), MaxY: uint64(grid.Rows - 1), BMax: 100,
	}
	ring, err := mask.DeriveKeyRing([]byte("perfbench:"+strconv.FormatInt(seed, 10)), channels, 5, 8)
	if err != nil {
		return nil, fmt.Errorf("key ring: %w", err)
	}
	return &fixture{
		seed:   seed,
		params: params,
		ring:   ring,
		policy: core.DisguisePolicy{P0: 0.6, Decay: 0.95},
		points: mix.Points(grid, n, rand.New(rand.NewSource(stream(seed, lanePopulation, 0)))),
	}, nil
}

// bidsFor draws one bidder's per-channel valuations: a quarter of
// (bidder, channel) pairs sit out with a zero bid, the rest bid uniformly
// in [1, bmax].
func bidsFor(rng *rand.Rand, channels int, bmax uint64) []uint64 {
	bids := make([]uint64, channels)
	for ch := range bids {
		if rng.Intn(4) > 0 {
			bids[ch] = 1 + uint64(rng.Int63n(int64(bmax)))
		}
	}
	return bids
}

// input is one clearing's inputs: who bids (external ids, ascending),
// where they are, what they bid, and the seed of the round rng. label
// numbers the clearing in its award digest: the round or the epoch.
type input struct {
	label int
	ids   []int
	pts   []geo.Point
	bids  [][]uint64
	seed  int64
}

// oneshotInput is round k of a one-shot workload: the whole population
// with fresh bids drawn from lane's stream, and a round rng seed drawn
// from the stream of lane combined with laneRound.
func (fx *fixture) oneshotInput(lane int64, k int) input {
	n := len(fx.points)
	rng := rand.New(rand.NewSource(stream(fx.seed, lane, k)))
	in := input{label: k, ids: make([]int, n), pts: fx.points, bids: make([][]uint64, n),
		seed: stream(fx.seed, laneRound^lane, k)}
	for i := range in.bids {
		in.ids[i] = i
		in.bids[i] = bidsFor(rng, fx.params.Channels, fx.params.BMax)
	}
	return in
}

// runRound clears in through the system's entry point, round.Run.
func (fx *fixture) runRound(in input, opts ...round.Option) (*round.Result, error) {
	return round.Run(fx.params, fx.ring, round.Input{
		Points: in.pts, Bids: in.bids, Policy: fx.policy,
		Rng: rand.New(rand.NewSource(in.seed)),
	}, opts...)
}

// award is the part of a clearing's result the digest covers.
type award struct {
	assignments []auction.Assignment
	charges     []uint64
	revenue     uint64
	satisfied   int
	voided      int
	excluded    int
}

func awardOf(res *round.Result) award {
	o := res.Outcome
	return award{assignments: o.Assignments, charges: o.Charges, revenue: o.Revenue,
		satisfied: o.SatisfiedBidders, voided: res.Voided, excluded: len(res.Excluded)}
}

// digest hashes the award transcript — the participating external ids,
// every (bidder, channel, charge) award, and the totals — in the line
// format the epoch service and load harness use for their award digests.
func (a award) digest(label int, ids []int) [32]byte {
	h := sha256.New()
	buf := make([]byte, 0, 64)
	buf = append(buf, "epoch "...)
	buf = strconv.AppendInt(buf, int64(label), 10)
	buf = append(buf, " bidders "...)
	buf = strconv.AppendInt(buf, int64(len(ids)), 10)
	buf = append(buf, " ["...)
	h.Write(buf)
	for _, id := range ids {
		buf = append(buf[:0], ' ')
		h.Write(strconv.AppendInt(buf, int64(id), 10))
	}
	h.Write([]byte(" ]\n"))
	for i, as := range a.assignments {
		buf = append(buf[:0], "award bidder "...)
		buf = strconv.AppendInt(buf, int64(ids[as.Bidder]), 10)
		buf = append(buf, " channel "...)
		buf = strconv.AppendInt(buf, int64(as.Channel), 10)
		buf = append(buf, " charge "...)
		buf = strconv.AppendUint(buf, a.charges[i], 10)
		h.Write(append(buf, '\n'))
	}
	fmt.Fprintf(h, "revenue %d satisfied %d voided %d excluded %d\n",
		a.revenue, a.satisfied, a.voided, a.excluded)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// oracleDigest clears in on the reference path — round.Run with one
// worker, unsharded, all-pairs — and digests the result.
func (fx *fixture) oracleDigest(in input) ([32]byte, error) {
	res, err := fx.runRound(in, round.WithWorkers(1))
	if err != nil {
		return [32]byte{}, err
	}
	return awardOf(res).digest(in.label, in.ids), nil
}
