package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lppa/internal/auction"
	"lppa/internal/conflict"
)

// The reference execution of one masked round, computed straight from the
// auctioneer's submissions with none of its caches: the all-pairs conflict
// graph, per-column rankings from a stable sort under CompareGE on the raw
// ChannelBids, and the paper's Algorithm 3 driven by that comparator
// (auction.AllocateAwards). The production path — inverted candidate
// index, interned digests, rank memos and the rank-cursor allocator — must
// match it bit for bit.

// rawGE evaluates the masked comparison directly on the submitted
// ChannelBids: one Family ∩ Range set intersection.
func (a *Auctioneer) rawGE(r, i, j int) bool {
	return CompareGE(&a.bids[i].Channels[r], &a.bids[j].Channels[r])
}

type oracleRound struct {
	graph    *conflict.Graph
	rankings [][]int
	awards   []auction.Award
	voided   []auction.Assignment
}

// oracleOf runs the reference round over a's submissions, allocating with
// valid (nil for batch charging) and a fresh rng seeded with seed.
func oracleOf(t testing.TB, a *Auctioneer, valid auction.Validity, seed int64) oracleRound {
	t.Helper()
	n, k := a.N(), a.params.Channels
	out := oracleRound{graph: BuildConflictGraph(a.locs), rankings: make([][]int, k)}
	for r := range out.rankings {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(x, y int) bool {
			i, j := order[x], order[y]
			return a.rawGE(r, i, j) && !a.rawGE(r, j, i)
		})
		out.rankings[r] = order
	}
	var err error
	out.awards, out.voided, err = auction.AllocateAwards(n, k, fullPresent(n, k), out.graph,
		a.rawGE, valid, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// matchOracle runs a's production path — graph, rankings, and allocation
// with valid and a fresh rng seeded with seed — and reports every
// observable that differs from want.
func matchOracle(t testing.TB, tag string, a *Auctioneer, want oracleRound, valid auction.Validity, seed int64) {
	t.Helper()
	if !a.ConflictGraph().Equal(want.graph) {
		t.Errorf("%s: conflict graph differs from the all-pairs oracle", tag)
	}
	if got := a.Rankings(); !reflect.DeepEqual(got, want.rankings) {
		t.Errorf("%s: rankings differ from the CompareGE sort\n got %v\nwant %v", tag, got, want.rankings)
	}
	awards, voided, err := a.allocateAwards(valid, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if !reflect.DeepEqual(awards, want.awards) || !reflect.DeepEqual(voided, want.voided) {
		t.Errorf("%s: awards differ from Algorithm 3 over CompareGE\n got %v voided %v\nwant %v voided %v",
			tag, awards, voided, want.awards, want.voided)
	}
}

// graphOnly wraps location submissions in an auctioneer whose bid
// submissions are empty placeholders: enough for conflict-graph tests,
// which never touch a bid.
func graphOnly(t testing.TB, p Params, subs []*LocationSubmission, workers int) *Auctioneer {
	t.Helper()
	bids := make([]*BidSubmission, len(subs))
	for i := range bids {
		bids[i] = &BidSubmission{Channels: make([]ChannelBid, p.Channels)}
	}
	a, err := NewAuctioneer(p, subs, bids)
	if err != nil {
		t.Fatal(err)
	}
	a.SetWorkers(workers)
	return a
}
