package round

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"lppa/internal/core"
	"lppa/internal/dataset"
	"lppa/internal/geo"
	"lppa/internal/mask"
)

// awardTranscriptWant is the SHA-256 of TestAwardTranscriptPinned's award
// transcripts. It was computed on the all-pairs conflict graph and the
// comparator-driven Algorithm 3 (auction.AllocateAwards over the
// auctioneer's GE), so it pins the production execution path — inverted
// candidate index, interned digests, rank-cursor allocation — bit for bit
// to that oracle across densities, shard counts, charging rules and
// worker counts.
const awardTranscriptWant = "3f46ed7f6e525c052890773dc12cb5de3e3dfd5f1be5dcbbd86391910c2cbd29"

// TestAwardTranscriptPinned hashes every round's awards — assignments,
// charges, voided count and excluded bidders — over density mixes
// (urban, rural, mixed) × unsharded and WithShards(4) × batch,
// interactive and second-price charging × WithWorkers 1 and 2, plus one degraded quorum
// round per density.
func TestAwardTranscriptPinned(t *testing.T) {
	const n = 120
	grid := geo.Grid{Rows: 40, Cols: 40, SideMeters: 3000}
	pol := core.DisguisePolicy{P0: 0.6, Decay: 0.95}
	charging := []struct {
		tag  string
		opts []Option
	}{
		{"batch", nil},
		{"interactive", []Option{WithInteractiveCharging()}},
		{"secondprice", []Option{WithSecondPrice()}},
	}

	h := sha256.New()
	record := func(tag string, res *Result) {
		h.Write([]byte(tag))
		for i, as := range res.Outcome.Assignments {
			writeInt(h, int64(as.Bidder))
			writeInt(h, int64(as.Channel))
			writeInt(h, int64(res.Outcome.Charges[i]))
		}
		writeInt(h, int64(res.Voided))
		writeInt(h, int64(len(res.Excluded)))
		for _, id := range res.Excluded {
			writeInt(h, int64(id))
		}
	}

	for _, mix := range []dataset.DensityMix{dataset.UrbanMix(), dataset.RuralMix(), dataset.MixedMix()} {
		p := core.Params{Channels: 4, Lambda: mix.Lambda,
			MaxX: uint64(grid.Cols - 1), MaxY: uint64(grid.Rows - 1), BMax: 100}
		ring, err := mask.DeriveKeyRing([]byte("award-transcript-"+mix.Name), p.Channels, 5, 8)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(41))
		pts := mix.Points(grid, n, rng)
		bids := make([][]uint64, n)
		for i := range bids {
			bids[i] = make([]uint64, p.Channels)
			for r := range bids[i] {
				if rng.Intn(4) > 0 {
					bids[i][r] = uint64(rng.Intn(int(p.BMax))) + 1
				}
			}
		}
		run := func(tag string, pts []geo.Point, opts ...Option) *Result {
			t.Helper()
			res, err := Run(p, ring, Input{Points: pts, Bids: bids, Policy: pol,
				Rng: rand.New(rand.NewSource(7))}, opts...)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			record(tag, res)
			return res
		}

		for _, shards := range []int{0, 4} {
			for _, ch := range charging {
				for _, workers := range []int{1, 2} {
					opts := append([]Option{WithWorkers(workers)}, ch.opts...)
					if shards > 0 {
						opts = append(opts, WithShards(shards))
					}
					run(fmt.Sprintf("%s/shards%d/%s/workers%d", mix.Name, shards, ch.tag, workers), pts, opts...)
				}
			}
		}

		// One degraded round: an unencodable bidder is excluded and the
		// auction runs over the compacted population.
		bad := append([]geo.Point(nil), pts...)
		bad[17] = geo.Point{X: p.MaxX + 1}
		if res := run(mix.Name+"/quorum", bad, WithWorkers(2), WithQuorum(n-1)); len(res.Excluded) != 1 {
			t.Fatalf("%s/quorum: excluded %v, want [17]", mix.Name, res.Excluded)
		}
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != awardTranscriptWant {
		t.Fatalf("award transcript hash %s, want %s", got, awardTranscriptWant)
	}
}
