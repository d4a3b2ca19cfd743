package core

import (
	"fmt"
	"math/rand"
	"testing"

	"lppa/internal/obs"
)

// TestObservedAuctioneerIdenticalResults pins the observability contract:
// attaching a registry may never change a graph, a ranking, or an
// allocation — only count them. The observed and unobserved auctioneers
// must both match the reference round, unsharded and sharded, at every
// worker count.
func TestObservedAuctioneerIdenticalResults(t *testing.T) {
	p := testParams()
	for _, seed := range []int64{5, 17} {
		for _, shards := range []int{0, 4} {
			for _, workers := range []int{1, 4} {
				plain, pts, _ := randomRound(t, p, 25, seed)
				watched, _, _ := randomRound(t, p, 25, seed)
				want := oracleOf(t, plain, nil, seed*3)
				plain.SetWorkers(workers)
				watched.SetWorkers(workers)
				watched.SetObserver(obs.NewRegistry())
				if shards > 0 {
					for _, a := range []*Auctioneer{plain, watched} {
						if err := a.SetShardPlan(testPlan(t, p, pts, shards)); err != nil {
							t.Fatal(err)
						}
					}
				}
				tag := fmt.Sprintf("seed=%d shards=%d workers=%d", seed, shards, workers)
				matchOracle(t, tag+"/plain", plain, want, nil, seed*3)
				matchOracle(t, tag+"/observed", watched, want, nil, seed*3)
			}
		}
	}
}

// TestObserverCountsFlow sanity-checks the tallies a full interned round
// leaves behind: comparisons, rank builds, memo hits, and intern traffic
// must all be non-zero, and derived identities must hold.
func TestObserverCountsFlow(t *testing.T) {
	p := testParams()
	reg := obs.NewRegistry()
	auc, _, _ := randomRound(t, p, 25, 9)
	auc.SetObserver(reg)
	auc.ConflictGraph()
	if _, err := auc.Allocate(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}

	get := func(name string) uint64 { return reg.Counter(name).Value() }
	if get("lppa_auctioneer_comparisons_total") == 0 {
		t.Error("no comparisons counted")
	}
	if got := get("lppa_auctioneer_rank_builds_total"); got != uint64(p.Channels) {
		t.Errorf("rank builds = %d, want %d (one per channel)", got, p.Channels)
	}
	if get("lppa_auctioneer_rank_memo_hits_total") == 0 {
		t.Error("no rank-memo hits counted")
	}
	total, hits, misses := get("lppa_intern_digests_total"), get("lppa_intern_hits_total"), get("lppa_intern_misses_total")
	if total == 0 || hits+misses != total {
		t.Errorf("intern identity broken: total=%d hits=%d misses=%d", total, hits, misses)
	}
	if rej, cmp := get("lppa_auctioneer_bloom_rejects_total"), get("lppa_auctioneer_comparisons_total"); rej > cmp {
		t.Errorf("bloom rejects %d exceed comparisons %d", rej, cmp)
	}
}
