package core

import (
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/geo"
)

// TestRearmMatchesFreshEncoder: one encoder re-armed per bidder encodes
// every bidder exactly as a fresh encoder would — same digests in the same
// order, same ciphertexts, same rng consumption — for the advanced scheme
// with and without disguise, the basic scheme, and after a failed Encode.
func TestRearmMatchesFreshEncoder(t *testing.T) {
	p := testParams()
	ring := testRing(t, p, 5, 8)
	sampler, err := NewDisguiseSampler(DisguisePolicy{P0: 0.5, Decay: 0.9}, p.BMax)
	if err != nil {
		t.Fatal(err)
	}
	samplers := []*DisguiseSampler{sampler, nil}
	type ctor func(*DisguiseSampler, *rand.Rand) (*BidEncoder, error)
	for _, scheme := range []struct {
		name string
		make ctor
	}{
		{"advanced", func(s *DisguiseSampler, rng *rand.Rand) (*BidEncoder, error) {
			return NewBidEncoder(p, ring, s, rng)
		}},
		{"basic", func(_ *DisguiseSampler, rng *rand.Rand) (*BidEncoder, error) {
			return NewBasicBidEncoder(p, ring, rng)
		}},
	} {
		src := rand.New(rand.NewSource(21))
		var reused *BidEncoder
		for i := 0; i < 30; i++ {
			seed, sampler := src.Int63(), samplers[i%2]
			bids := make([]uint64, p.Channels)
			for r := range bids {
				if src.Intn(3) > 0 {
					bids[r] = uint64(src.Intn(int(p.BMax) + 1))
				}
			}
			if i%7 == 3 {
				bids[1] = p.BMax + 1 // fails mid-vector, after channel 0 encoded
			}

			freshRng := rand.New(rand.NewSource(seed))
			fresh, err := scheme.make(sampler, freshRng)
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := fresh.Encode(bids, freshRng)

			rng := rand.New(rand.NewSource(seed))
			if reused == nil {
				if reused, err = scheme.make(sampler, rng); err != nil {
					t.Fatal(err)
				}
			} else {
				reused.Rearm(sampler, rng)
			}
			got, gotErr := reused.Encode(bids, rng)

			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s bidder %d: errors %v vs %v", scheme.name, i, wantErr, gotErr)
			}
			if wantErr == nil {
				for r := range want.Channels {
					w, g := &want.Channels[r], &got.Channels[r]
					if !reflect.DeepEqual(w.Family.Digests(), g.Family.Digests()) ||
						!reflect.DeepEqual(w.Range.Digests(), g.Range.Digests()) ||
						string(w.Sealed) != string(g.Sealed) {
						t.Fatalf("%s bidder %d channel %d: re-armed encoding differs", scheme.name, i, r)
					}
				}
			}
			if freshRng.Int63() != rng.Int63() {
				t.Fatalf("%s bidder %d: re-armed encoder consumed a different amount of randomness", scheme.name, i)
			}
		}
	}
}

// TestLocationEncoderReuseMatchesFresh: one LocationEncoder (and its
// clone) across many points yields the same submissions as building each
// with NewLocationSubmission.
func TestLocationEncoderReuseMatchesFresh(t *testing.T) {
	p := testParams()
	ring := testRing(t, p, 5, 8)
	enc, err := NewLocationEncoder(p, ring)
	if err != nil {
		t.Fatal(err)
	}
	clone := enc.Clone()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		pt := geo.Point{X: uint64(rng.Intn(int(p.MaxX) + 1)), Y: uint64(rng.Intn(int(p.MaxY) + 1))}
		want, err := NewLocationSubmission(p, ring, pt)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*LocationEncoder{enc, clone} {
			got, err := e.Encode(pt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("point %v: reused location encoder differs from a fresh build", pt)
			}
		}
	}
	if _, err := enc.Encode(geo.Point{X: p.MaxX + 1}); err == nil {
		t.Fatal("out-of-domain point accepted")
	}
}
