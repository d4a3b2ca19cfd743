package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
)

// The column-build equivalence suite: every production rank memo —
// RankChannel's order and the dense rank behind GE, under every shard and
// worker setting — must equal the reference stable sort under CompareGE
// over the raw submitted sets, with its dense-rank fold.

// referenceColumn is the memo's definition: all bidders stable-sorted by
// descending masked bid under rawGE, each bidder's rank the position where
// its tie group starts.
func referenceColumn(a *Auctioneer, r int) (order, rank []int) {
	n := a.N()
	order = make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		i, j := order[x], order[y]
		return a.rawGE(r, i, j) && !a.rawGE(r, j, i)
	})
	rank = make([]int, n)
	rk := 0
	for x, i := range order {
		if x > 0 {
			prev := order[x-1]
			if !(a.rawGE(r, i, prev) && a.rawGE(r, prev, i)) {
				rk = x
			}
		}
		rank[i] = rk
	}
	return order, rank
}

// columnRound encodes bids under a ring with blinding factor cr, with
// zero bids disguised when disguise is set, into a fresh auctioneer.
func columnRound(t testing.TB, p Params, cr uint64, disguise bool, pts []geo.Point, bids [][]uint64, seed int64) *Auctioneer {
	t.Helper()
	ring, err := mask.DeriveKeyRing([]byte("column-rank"), p.Channels, 5, cr)
	if err != nil {
		t.Fatal(err)
	}
	var sampler *DisguiseSampler
	if disguise {
		if sampler, err = NewDisguiseSampler(DisguisePolicy{P0: 0.5, Decay: 0.9}, p.BMax); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	locs, err := NewLocationSubmissions(p, ring, pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*BidSubmission, len(bids))
	for i := range bids {
		enc, err := NewBidEncoder(p, ring, sampler, rng)
		if err != nil {
			t.Fatal(err)
		}
		if subs[i], err = enc.Encode(bids[i], rng); err != nil {
			t.Fatal(err)
		}
	}
	a, err := NewAuctioneer(p, locs, subs)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// matchReference checks every column of a against the reference memo of
// ref (an auctioneer over the same submissions, or a itself).
func matchReference(t testing.TB, tag string, a, ref *Auctioneer) {
	t.Helper()
	for r := 0; r < a.params.Channels; r++ {
		wantOrder, wantRank := referenceColumn(ref, r)
		if got := a.RankChannel(r); !reflect.DeepEqual(got, wantOrder) {
			t.Fatalf("%s r=%d: order %v, reference %v", tag, r, got, wantOrder)
		}
		if got := a.columnRank(r); !reflect.DeepEqual(got, wantRank) {
			t.Fatalf("%s r=%d: rank %v, reference %v", tag, r, got, wantRank)
		}
	}
}

// columnBids draws an n × k bid matrix from one of the column shapes.
func columnBids(p Params, shape string, n int, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	bids := make([][]uint64, n)
	for i := range bids {
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			switch shape {
			case "random":
				if rng.Intn(3) > 0 {
					bids[i][r] = uint64(rng.Intn(int(p.BMax))) + 1
				}
			case "narrow":
				bids[i][r] = uint64(rng.Intn(4))
			case "all-equal":
				bids[i][r] = 42
			case "all-distinct":
				bids[i][r] = uint64(i+13*r)%p.BMax + 1
			case "all-zero":
			}
		}
	}
	return bids
}

// TestColumnRankMatchesReference is the column build's equivalence table:
// random and narrow columns plus the edge columns — all bids equal (one
// bid class at CR 1), all distinct (C = n), all zero, and a lone bidder —
// at CR 1 and 8 with disguise on and off, unsharded and under a 4-tile
// plan, at 1, 2 and 8 workers.
func TestColumnRankMatchesReference(t *testing.T) {
	p := Params{Channels: 8, Lambda: 3, MaxX: 99, MaxY: 99, BMax: 100}
	type shape struct {
		name string
		n    int
	}
	shapes := []shape{{"random", 40}, {"narrow", 40}, {"all-equal", 30}, {"all-distinct", 60}, {"all-zero", 30}, {"random", 1}}
	for si, sh := range shapes {
		pts := randomPoints(p, sh.n, int64(si)+5)
		bids := columnBids(p, sh.name, sh.n, int64(si)+9)
		for _, cr := range []uint64{1, 8} {
			for _, disguise := range []bool{false, true} {
				seed := int64(si*100) + int64(cr)
				ref := columnRound(t, p, cr, disguise, pts, bids, seed)
				for _, shards := range []int{0, 4} {
					for _, workers := range []int{1, 2, 8} {
						a, err := NewAuctioneer(p, ref.locs, ref.bids)
						if err != nil {
							t.Fatal(err)
						}
						a.SetWorkers(workers)
						if shards > 0 {
							if err := a.SetShardPlan(testPlan(t, p, pts, shards)); err != nil {
								t.Fatal(err)
							}
						}
						tag := fmt.Sprintf("%s n=%d cr=%d disguise=%v shards=%d workers=%d",
							sh.name, sh.n, cr, disguise, shards, workers)
						matchReference(t, tag, a, ref)
					}
				}
			}
		}
	}
}

// TestColumnRankSplitClassUnchanged re-orders one bidder's family digests
// in its Set: the raw-order class key then splits that bidder's class in
// two — visible as extra interned representative digests — and the
// ge-equal halves must fold back into one value rank, leaving every memo
// unchanged.
func TestColumnRankSplitClassUnchanged(t *testing.T) {
	p := testParams()
	const n = 30
	pts := randomPoints(p, n, 3)
	base := columnRound(t, p, 1, false, pts, columnBids(p, "narrow", n, 4), 5)

	// Bidder 0 represents its class on every column; another member takes
	// over as representative of the original digest order.
	subs := append([]*BidSubmission(nil), base.bids...)
	reordered := &BidSubmission{Channels: make([]ChannelBid, p.Channels)}
	for r, cb := range base.bids[0].Channels {
		ds := cb.Family.Digests()
		slices.Reverse(ds)
		reordered.Channels[r] = ChannelBid{Family: mask.NewSet(ds), Range: cb.Range, Sealed: cb.Sealed}
	}
	subs[0] = reordered

	interned := func(a *Auctioneer) uint64 {
		reg := obs.NewRegistry()
		a.SetObserver(reg)
		a.Rankings()
		return reg.Snapshot().Counters["lppa_intern_digests_total"]
	}
	orig, err := NewAuctioneer(p, base.locs, base.bids)
	if err != nil {
		t.Fatal(err)
	}
	split, err := NewAuctioneer(p, base.locs, subs)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := interned(orig), interned(split); b <= a {
		t.Fatalf("re-ordered family interned %d representative digests, original %d: class not split", b, a)
	}
	matchReference(t, "original", orig, orig)
	matchReference(t, "split", split, orig)
}

// FuzzColumnRank replays arbitrary (seed, population, value spread, CR,
// disguise, sharding, workers) tuples: the production memo must equal the
// reference CompareGE stable sort and its dense-rank fold. Narrow spreads
// make large bid classes; wide ones push C toward n.
func FuzzColumnRank(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(100), false, false, false, uint8(1))
	f.Add(int64(2), uint8(50), uint8(3), true, true, true, uint8(2))
	f.Add(int64(3), uint8(0), uint8(0), true, false, true, uint8(8))
	f.Add(int64(4), uint8(63), uint8(1), false, true, false, uint8(3))

	p := testParams()
	f.Fuzz(func(t *testing.T, seed int64, nRaw, spreadRaw uint8, crBig, disguise, sharded bool, workersRaw uint8) {
		n := int(nRaw%64) + 1
		spread := int(spreadRaw) % int(p.BMax+1)
		cr := uint64(1)
		if crBig {
			cr = 8
		}
		rng := rand.New(rand.NewSource(seed))
		bids := make([][]uint64, n)
		for i := range bids {
			bids[i] = make([]uint64, p.Channels)
			for r := range bids[i] {
				bids[i][r] = uint64(rng.Intn(spread + 1))
			}
		}
		pts := randomPoints(p, n, seed)
		a := columnRound(t, p, cr, disguise, pts, bids, seed)
		a.SetWorkers(int(workersRaw%9) + 1)
		if sharded {
			if err := a.SetShardPlan(testPlan(t, p, pts, 4)); err != nil {
				t.Fatal(err)
			}
		}
		matchReference(t, fmt.Sprintf("seed=%d n=%d spread=%d cr=%d disguise=%v sharded=%v",
			seed, n, spread, cr, disguise, sharded), a, a)
	})
}
