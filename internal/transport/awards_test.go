package transport

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sync"
	"testing"
	"time"

	"lppa/internal/core"
	"lppa/internal/geo"
)

// networkedAwardsWant is the SHA-256 of TestNetworkedAwardsPinned's round
// outcomes. It was computed when the wire server still ran its own copy
// of the auctioneer pipeline, so it pins the networked path's awards —
// per-bidder wins, channels, prices and voids, plus revenue, voided count
// and exclusions — across any rewiring of how the server clears.
const networkedAwardsWant = "a32697cc8869eee9084e32d772765e550d0c809b5a8ad56f33179ca5e989b2e5"

// TestNetworkedAwardsPinned runs seeded loopback rounds — a TTP server,
// an auctioneer server and BidderClients — under first-price and
// second-price charging, plus a quorum round in which one bidder never
// connects (the straggler deadline always fires with the same bidder
// missing), and hashes each RoundOutcome.
func TestNetworkedAwardsPinned(t *testing.T) {
	p := testParams()
	const n = 12
	rng := rand.New(rand.NewSource(29))
	points := make([]geo.Point, n)
	bids := make([][]uint64, n)
	for i := range points {
		// A 20×20 corner keeps most bidders in conflict with someone.
		points[i] = geo.Point{X: uint64(rng.Intn(20)), Y: uint64(rng.Intn(20))}
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			if rng.Intn(3) > 0 {
				bids[i][r] = uint64(rng.Intn(int(p.BMax))) + 1
			}
		}
	}
	rows := []struct {
		name   string
		cfg    Config
		absent int // bidder that never connects; -1 for none
	}{
		{"first", Config{}, -1},
		{"second", Config{SecondPrice: true}, -1},
		{"quorum", Config{Quorum: n - 1, StragglerTimeout: 2 * time.Second}, 5},
	}

	h := sha256.New()
	for _, row := range rows {
		out := pinnedNetworkedRound(t, p, n, points, bids, row.cfg, row.absent)
		hashOutcome(h, row.name, out)
		if row.absent >= 0 && (len(out.Excluded) != 1 || out.Excluded[0] != row.absent) {
			t.Fatalf("%s: excluded %v, want [%d]", row.name, out.Excluded, row.absent)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != networkedAwardsWant {
		t.Fatalf("networked awards hash %s, want %s", got, networkedAwardsWant)
	}
}

// pinnedNetworkedRound runs one loopback round with every bidder but
// absent and returns the auctioneer's outcome.
func pinnedNetworkedRound(t *testing.T, p core.Params, n int, points []geo.Point, bids [][]uint64,
	cfg Config, absent int) *RoundOutcome {
	t.Helper()
	log := quietLogger()
	ttpSrv, err := NewTTPServer(p, []byte("pinned-awards"), 3, 4, listen(t), log)
	if err != nil {
		t.Fatal(err)
	}
	defer ttpSrv.Close()
	cfg.Logger = log
	aucSrv, err := NewAuctioneerServerWithConfig(p, n, ttpSrv.Addr().String(), listen(t), 17, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer aucSrv.Close()

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		if i == absent {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := &BidderClient{ID: i, Params: p, Policy: core.DisguisePolicy{P0: 0.6, Decay: 0.9}}
			_, errs[i] = b.Participate(ttpSrv.Addr().String(), aucSrv.Addr().String(),
				points[i], bids[i], rand.New(rand.NewSource(int64(300+i))))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("bidder %d: %v", i, err)
		}
	}
	out, err := aucSrv.Outcome()
	if err != nil {
		t.Fatalf("round failed: %v", err)
	}
	return out
}

// hashOutcome writes one round outcome into h: every per-bidder result in
// id order, then the round totals and the excluded ids.
func hashOutcome(h hash.Hash, tag string, out *RoundOutcome) {
	fmt.Fprintf(h, "%s|", tag)
	for _, r := range out.Results {
		fmt.Fprintf(h, "%d,%t,%d,%d,%t|", r.BidderID, r.Won, r.Channel, r.Price, r.Voided)
	}
	fmt.Fprintf(h, "rev=%d,voided=%d,excluded=%v|", out.Revenue, out.Voided, out.Excluded)
}
