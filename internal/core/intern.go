package core

import "lppa/internal/mask"

// Auctioneer-side interning (DESIGN.md §5b): on ingest the auctioneer maps
// every 16-byte digest it receives to a dense uint32 ID and evaluates all
// masked set operations on sorted-ID slices with a Bloom quick reject,
// instead of scanning 16-byte digests. The slice-backed mask.Set stays the
// bidder-side encoding and wire type — interning is a private view of the
// same digests, so no protocol byte changes and every predicate outcome is
// identical by construction (pinned by the representation-equivalence
// tests). Dictionaries live for one auction: submissions are immutable
// after NewAuctioneer, so interned sets are never invalidated.

// internedLocation is the compact form of one LocationSubmission. All four
// sets of all bidders share one Dict, so cross-bidder intersections
// compare IDs meaningfully.
type internedLocation struct {
	xFamily, yFamily, xRange, yRange mask.IntSet
}

// internLocations interns a whole population under one fresh dictionary.
// It also reports how many digests passed through the dictionary and how
// many were distinct (dictionary misses) — the difference is the intern
// hit count the observability layer exports. Callers that do not observe
// ignore both. A non-nil ix is populated incrementally during the same
// ingest pass: each bidder's X family and X range cover are posted as they
// are interned (graphbuild.go; nil skips the index entirely).
func internLocations(subs []*LocationSubmission, ix *mask.Index) (out []internedLocation, total, distinct int) {
	var dict *mask.Dict
	if len(subs) > 0 {
		s := subs[0]
		dict = mask.NewDictCap(len(subs) * (s.XFamily.Len() + s.YFamily.Len() + s.XRange.Len() + s.YRange.Len()))
	} else {
		dict = mask.NewDict()
	}
	// Bidders sharing one submission pointer (the batch encoder hands
	// co-located bidders the same immutable submission) intern once and
	// share the result; the index is still posted per bidder so the
	// global candidate rows stay complete.
	out = make([]internedLocation, len(subs))
	memo := make(map[*LocationSubmission]int, len(subs))
	for i, s := range subs {
		if j, ok := memo[s]; ok {
			out[i] = out[j]
		} else {
			memo[s] = i
			total += s.XFamily.Len() + s.YFamily.Len() + s.XRange.Len() + s.YRange.Len()
			out[i] = internedLocation{
				xFamily: dict.InternSet(s.XFamily),
				yFamily: dict.InternSet(s.YFamily),
				xRange:  dict.InternSet(s.XRange),
				yRange:  dict.InternSet(s.YRange),
			}
		}
		if ix != nil {
			ix.Add(out[i].xFamily, out[i].xRange)
		}
	}
	return out, total, dict.Len()
}

// conflicts is Conflicts on the interned representation: i's coordinate
// families must intersect j's range covers on both axes.
func (a *internedLocation) conflicts(b *internedLocation) bool {
	return a.xFamily.Intersects(b.xRange) && a.yFamily.Intersects(b.yRange)
}

// conflictsCounted is conflicts with intersection tallies (observed
// conflict-graph builds only; the uncounted path stays untouched).
func (a *internedLocation) conflictsCounted(b *internedLocation, st *mask.IntersectStats) bool {
	return a.xFamily.IntersectsCounted(b.xRange, st) && a.yFamily.IntersectsCounted(b.yRange, st)
}

// internedChannelBid is the compact form of one ChannelBid. One Dict
// serves one bid column: digests under different per-channel keys never
// need to be compared, so per-column dictionaries keep IDs dense.
type internedChannelBid struct {
	family, rng mask.IntSet
}

// internColumn interns column r of a bid matrix under a fresh dictionary.
// Like internLocations it reports digest throughput and distinct count
// for the observability layer.
func internColumn(bids []*BidSubmission, r int) (out []internedChannelBid, total, distinct int) {
	var dict *mask.Dict
	if len(bids) > 0 {
		cb := &bids[0].Channels[r]
		dict = mask.NewDictCap(len(bids) * (cb.Family.Len() + cb.Range.Len()))
	} else {
		dict = mask.NewDict()
	}
	out = make([]internedChannelBid, len(bids))
	for i, b := range bids {
		cb := &b.Channels[r]
		total += cb.Family.Len() + cb.Range.Len()
		out[i] = internedChannelBid{
			family: dict.InternSet(cb.Family),
			rng:    dict.InternSet(cb.Range),
		}
	}
	return out, total, dict.Len()
}

// ge is CompareGE on the interned representation.
func (a *internedChannelBid) ge(b *internedChannelBid) bool {
	return a.family.Intersects(b.rng)
}

// geCounted is ge with intersection tallies (observed rank-memo builds
// only).
func (a *internedChannelBid) geCounted(b *internedChannelBid, st *mask.IntersectStats) bool {
	return a.family.IntersectsCounted(b.rng, st)
}
