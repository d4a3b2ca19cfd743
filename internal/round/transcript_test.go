package round

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"lppa/internal/core"
	"lppa/internal/mask"
)

// encodeTranscriptWant is the SHA-256 of the bidder-side encode transcript
// of TestEncodeTranscriptPinned's fixture across every encode path. It
// pins the submissions bit for bit — every digest, every sealed byte, and
// how much randomness each path consumed — so allocation or structural
// rewrites of the encode path cannot drift from the protocol transcript
// unnoticed.
const encodeTranscriptWant = "8362187d4b089620731819698e23807e61214598bf4a015001a51a93c30f4e72"

func writeSet(h hash.Hash, s mask.Set) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(s.Len()))
	h.Write(n[:])
	for _, d := range s.SortedDigests() {
		h.Write(d[:])
	}
}

func writeInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// TestEncodeTranscriptPinned hashes, for each encode path — the strict
// encoder at one and two workers and the quorum-tolerant encoder at two —
// every location and bid set's sorted digests, every sealed ciphertext,
// and one draw of the round rng after encoding. Each path additionally
// hashes one post-encode draw of each bidder's own stream, replayed
// through a fresh encoder whose ciphertexts must match the path's (so the
// replayed stream is the one the path consumed).
func TestEncodeTranscriptPinned(t *testing.T) {
	p, ring, points, bids := parallelFixture(t, 24, 2, 11)
	points[7] = points[3] // co-located bidders share a location submission
	points[19] = points[3]
	bids[5] = make([]uint64, p.Channels) // an all-zero bidder
	bids[6][0], bids[6][1] = p.BMax, 1   // domain edges
	samplers, err := buildSamplers(transcriptPolicies(len(points)), p.BMax)
	if err != nil {
		t.Fatal(err)
	}
	const roundSeed = 2024

	h := sha256.New()
	record := func(shape string, locs []*core.LocationSubmission, subs []*core.BidSubmission, rng *rand.Rand) {
		h.Write([]byte(shape))
		for i := range locs {
			l := locs[i]
			for _, s := range []mask.Set{l.XFamily, l.YFamily, l.XRange, l.YRange} {
				writeSet(h, s)
			}
			for r := range subs[i].Channels {
				cb := &subs[i].Channels[r]
				writeSet(h, cb.Family)
				writeSet(h, cb.Range)
				h.Write(cb.Sealed)
			}
		}
		writeInt(h, rng.Int63())
	}
	// replaySeeded hashes each bidder's post-encode draw.
	replaySeeded := func(shape string, subs []*core.BidSubmission) {
		seeds := rand.New(rand.NewSource(roundSeed))
		for i := range subs {
			rngI := rand.New(rand.NewSource(seeds.Int63()))
			enc, err := core.NewBidEncoder(p, ring, samplers[i], rngI)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := enc.Encode(bids[i], rngI)
			if err != nil {
				t.Fatal(err)
			}
			for r := range sub.Channels {
				if string(sub.Channels[r].Sealed) != string(subs[i].Channels[r].Sealed) {
					t.Fatalf("%s: bidder %d channel %d: seeded stream replay diverges", shape, i, r)
				}
			}
			writeInt(h, rngI.Int63())
		}
	}

	for _, workers := range []int{1, 2} {
		shape := "seeded/" + string(rune('0'+workers))
		rng := rand.New(rand.NewSource(roundSeed))
		locs, subs, err := encodeSubmissions(p, ring, points, bids, samplers, rng, workers)
		if err != nil {
			t.Fatal(err)
		}
		record(shape, locs, subs, rng)
		replaySeeded(shape, subs)
	}

	rng := rand.New(rand.NewSource(roundSeed))
	locs, subs, errs := encodeTolerant(p, ring, points, bids, samplers, rng, 2, 0)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tolerant/seeded: bidder %d: %v", i, err)
		}
	}
	record("tolerant/seeded", locs, subs, rng)
	replaySeeded("tolerant/seeded", subs)

	if got := hex.EncodeToString(h.Sum(nil)); got != encodeTranscriptWant {
		t.Fatalf("encode transcript hash %s, want %s", got, encodeTranscriptWant)
	}
}

// transcriptPolicies mixes disguising policies (shared and distinct
// samplers) with honest-zero bidders (P0 = 1, nil sampler).
func transcriptPolicies(n int) []core.DisguisePolicy {
	pols := make([]core.DisguisePolicy, n)
	for i := range pols {
		switch i % 3 {
		case 0:
			pols[i] = core.DisguisePolicy{P0: 0.6, Decay: 0.95}
		case 1:
			pols[i] = core.DisguisePolicy{P0: 0.3 + float64(i%4)*0.1, Decay: 0.9}
		default:
			pols[i] = core.DisguisePolicy{P0: 1}
		}
	}
	return pols
}
