package core

import (
	"fmt"
	"testing"

	"lppa/internal/conflict"
)

// TestConflictGraphRepresentationEquivalence pins the tentpole soundness
// claim: the interned conflict graph (Bloom quick reject + sorted-ID
// merges) is bit-identical to evaluating the map-based Conflicts predicate
// directly, across populations, λ, and worker counts.
func TestConflictGraphRepresentationEquivalence(t *testing.T) {
	for _, lambda := range []uint64{1, 2, 4} {
		p := Params{Channels: 1, Lambda: lambda, MaxX: 99, MaxY: 99, BMax: 100}
		ring := testRing(t, p, 5, 8)
		for _, n := range []int{2, 30, 90} {
			pts := randomPoints(p, n, int64(lambda)*53+int64(n))
			subs, err := NewLocationSubmissions(p, ring, pts, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := conflict.BuildFromPredicate(n, func(i, j int) bool {
				return Conflicts(subs[i], subs[j])
			})
			if got := BuildConflictGraph(subs); !got.Equal(want) {
				t.Errorf("lambda=%d n=%d: interned serial graph differs from map-based", lambda, n)
			}
			for _, workers := range []int{2, 4} {
				if got := BuildConflictGraphParallel(subs, workers); !got.Equal(want) {
					t.Errorf("lambda=%d n=%d workers=%d: interned parallel graph differs from map-based", lambda, n, workers)
				}
			}
		}
	}
}

// TestAuctioneerRepresentationEquivalence runs the same rounds (several
// seeds, batch and interactive allocation) through the auctioneer and
// through the reference round over its raw submissions, and demands
// identical graphs, GE answers, transcripts and full allocations: the
// interned representation may never change an auction outcome.
func TestAuctioneerRepresentationEquivalence(t *testing.T) {
	p := testParams()
	for _, seed := range []int64{3, 11, 29} {
		for _, interactive := range []bool{false, true} {
			auc, _, bids := randomRound(t, p, 25, seed)
			var valid func(i, r int) bool
			if interactive {
				valid = func(i, r int) bool { return bids[i][r] > 0 }
			}
			want := oracleOf(t, auc, valid, seed*7)
			for r := 0; r < p.Channels; r++ {
				for i := 0; i < auc.N(); i++ {
					for j := 0; j < auc.N(); j++ {
						if auc.GE(r, i, j) != auc.rawGE(r, i, j) {
							t.Fatalf("seed=%d r=%d: GE(%d,%d) differs from CompareGE", seed, r, i, j)
						}
					}
				}
			}
			matchOracle(t, fmt.Sprintf("seed=%d interactive=%v", seed, interactive), auc, want, valid, seed*7)
		}
	}
}

// TestGEMemoMatchesRawUnderInterning extends the memo-correctness anchor
// to the interned column build on both round shapes, unsharded and under a
// shard plan: every memoized GE answer must equal the direct masked
// intersection rawGE evaluates on the submitted ChannelBids.
func TestGEMemoMatchesRawUnderInterning(t *testing.T) {
	p := testParams()
	auc, pts, bids := randomRound(t, p, 20, 47)
	sharded := buildRound(t, p, pts, bids, 1047)
	if err := sharded.SetShardPlan(testPlan(t, p, pts, 4)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p.Channels; r++ {
		for i := 0; i < auc.N(); i++ {
			for j := 0; j < auc.N(); j++ {
				if got, want := auc.GE(r, i, j), auc.rawGE(r, i, j); got != want {
					t.Fatalf("r=%d: interned memo GE(%d,%d)=%v, raw=%v", r, i, j, got, want)
				}
				if got, want := sharded.GE(r, i, j), sharded.rawGE(r, i, j); got != want {
					t.Fatalf("r=%d: sharded memo GE(%d,%d)=%v, raw=%v", r, i, j, got, want)
				}
			}
		}
	}
}
