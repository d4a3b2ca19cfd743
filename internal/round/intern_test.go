package round

import (
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/conflict"
	"lppa/internal/core"
)

// TestRunPrivateOptsRepresentationInvariance pins the end-to-end soundness
// of auctioneer-side interning: for several seeds and worker counts, the
// full private round — outcome, charges, voids, conflict graph, rankings,
// transcript bytes — is identical, and the conflict graph found over
// interned masked digests is exactly the plaintext interference graph.
// The interned fast path may change nothing observable.
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
		if !base.Auctioneer.ConflictGraph().Equal(conflict.BuildPlain(points, p.Lambda)) {
			t.Errorf("seed=%d: masked conflict graph differs from the plaintext graph", seed)
		}
		for _, workers := range []int{2, 4} {
			got, err := Run(p, ring, in(), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Outcome, base.Outcome) {
				t.Errorf("seed=%d workers=%d: outcome differs", seed, workers)
			}
			if got.Voided != base.Voided || got.Violations != base.Violations ||
				got.SubmissionBytes != base.SubmissionBytes {
				t.Errorf("seed=%d workers=%d: voids/violations/bytes differ", seed, workers)
			}
			if !got.Auctioneer.ConflictGraph().Equal(base.Auctioneer.ConflictGraph()) {
				t.Errorf("seed=%d workers=%d: conflict graphs differ", seed, workers)
			}
			if !reflect.DeepEqual(got.Auctioneer.Rankings(), base.Auctioneer.Rankings()) {
				t.Errorf("seed=%d workers=%d: rankings differ", seed, workers)
			}
		}
	}
}
