package round

import (
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/core"
)

// TestRunPrivateOptsRepresentationInvariance pins the end-to-end soundness
// of auctioneer-side interning: for several seeds and every combination of
// worker count and set representation, the full private round — outcome,
// charges, voids, conflict graph, rankings, transcript bytes — is
// identical. The interned fast path may change nothing observable.
func TestRunPrivateOptsRepresentationInvariance(t *testing.T) {
	policy := core.DisguisePolicy{P0: 0.6, Decay: 0.9}
	for _, seed := range []int64{2, 13, 37} {
		p, ring, points, bids := parallelFixture(t, 25, 2, seed)
		in := func() Input {
			return Input{Points: points, Bids: bids, Policy: policy, Rng: rand.New(rand.NewSource(seed * 101))}
		}
		base, err := Run(p, ring, in(), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, disable := range []bool{false, true} {
				opts := []Option{WithWorkers(workers)}
				if disable {
					opts = append(opts, WithoutInterning())
				}
				got, err := Run(p, ring, in(), opts...)
				if err != nil {
					t.Fatal(err)
				}
				tag := "interned"
				if disable {
					tag = "map-based"
				}
				if !reflect.DeepEqual(got.Outcome, base.Outcome) {
					t.Errorf("seed=%d workers=%d %s: outcome differs", seed, workers, tag)
				}
				if got.Voided != base.Voided || got.Violations != base.Violations ||
					got.SubmissionBytes != base.SubmissionBytes {
					t.Errorf("seed=%d workers=%d %s: voids/violations/bytes differ", seed, workers, tag)
				}
				if !got.Auctioneer.ConflictGraph().Equal(base.Auctioneer.ConflictGraph()) {
					t.Errorf("seed=%d workers=%d %s: conflict graphs differ", seed, workers, tag)
				}
				if !reflect.DeepEqual(got.Auctioneer.Rankings(), base.Auctioneer.Rankings()) {
					t.Errorf("seed=%d workers=%d %s: rankings differ", seed, workers, tag)
				}
			}
		}
	}
}
