package core

import (
	"slices"

	"lppa/internal/mask"
)

// Per-column rank memos (DESIGN.md §5b, §5g): the one column build behind
// GE, RankChannel and the rank-cursor allocator, for every round shape.
// Masked comparison is order-preserving — CompareGE(i, j) ⟺ the hidden
// blinded value of i is ≥ j's — so each column is a total preorder, and
// the memo is its stable sort: bidders by descending masked bid, ties in
// ascending index order, each bidder's rank the position where its tie
// group starts. The build never sorts n bidders under the comparator: it
// sorts the column's C distinct bid classes and counting-sorts the
// bidders by class value.

// columnStats is one column build's telemetry for observed auctioneers:
// the masked intersections its class sort spent and the digests it
// interned.
type columnStats struct {
	st              mask.IntersectStats
	total, distinct int
}

// buildRanks builds every column's memo at once, striped across the
// worker goroutines. Columns are independent — each has its own
// dictionary, memo and tally — so the memos are identical for every
// worker count; observed tallies are folded into the registry in column
// order after the join.
func (a *Auctioneer) buildRanks() {
	n, k := a.N(), a.params.Channels
	flat := make([]int, 2*k*n)
	a.rank = make([][]int, k)
	a.rankOrder = make([][]int, k)
	var stats []columnStats
	if a.ob != nil {
		stats = make([]columnStats, k)
	}
	a.stripe(k, func(r int) {
		base := 2 * r * n
		order, rank := flat[base:base+n:base+n], flat[base+n:base+2*n:base+2*n]
		var cs *columnStats
		if stats != nil {
			cs = &stats[r]
		}
		rankColumn(a.bids, r, order, rank, cs)
		a.rankOrder[r], a.rank[r] = order, rank
	})
	if a.ob != nil {
		a.colCalls = make([]uint64, k)
		for r := range stats {
			a.colCalls[r] = stats[r].st.Calls
			a.ob.rankBuilds.Inc()
			a.ob.noteIntern(stats[r].total, stats[r].distinct)
			a.ob.flushStats(&stats[r].st)
		}
	}
}

// rankColumn fills column r's memo: order lists the bidders by descending
// masked bid (ties by ascending index) and rank[i] is the position in
// order where i's tie group starts. cs, when non-nil, receives the
// build's tallies.
//
// Bid classes: bidders whose family digests match byte for byte, in
// submission order, form one class. The full-width prefix makes the
// family injective in the blinded value, so class members carry the same
// value and the same non-padding range cover — identical ge outcomes on
// both sides under the no-digest-collision assumption CompareGE itself
// rests on (cover padding is random noise that never equals a real family
// digest). Keying on raw order can only split a class (one set submitted
// in two orders), never merge two; split classes are ge-equal and fold
// into one value rank below, so the memo is unchanged.
//
// Only the C class representatives are interned and sorted under ge, and
// adjacent ge-equal classes (distinct blinding slots, equal displayed
// value) fold into one dense value rank. The bidders are then placed by a
// counting sort on (value rank, index) — exactly the stable sort of all n
// under the masked order, in O(n + C) with no comparator. Masked
// intersections cost O(C log C): C is the count of distinct blinded
// values, far below n for narrow bid ledgers, and degrades gracefully to
// n when every blinded value is unique.
func rankColumn(bids []*BidSubmission, r int, order, rank []int, cs *columnStats) {
	n := len(bids)
	classOf := make([]int32, n)
	byKey := make(map[string]int32, n)
	reps := make([]int32, 0, n)
	famLen := bids[0].Channels[r].Family.Len()
	ds := make([]mask.Digest, 0, famLen)
	key := make([]byte, 0, famLen*mask.DigestSize)
	total := 0
	for i, b := range bids {
		cb := &b.Channels[r]
		ds = cb.Family.AppendDigests(ds[:0])
		key = key[:0]
		for d := range ds {
			key = append(key, ds[d][:]...)
		}
		c, ok := byKey[string(key)]
		if !ok {
			c = int32(len(reps))
			byKey[string(key)] = c
			reps = append(reps, int32(i))
			total += cb.Family.Len() + cb.Range.Len()
		}
		classOf[i] = c
	}

	dict := mask.NewDictCap(total)
	ids := make([]uint32, total)
	col := make([]internedChannelBid, len(reps))
	for c, i := range reps {
		cb := &bids[i].Channels[r]
		f, g := cb.Family.Len(), cb.Range.Len()
		col[c] = internedChannelBid{
			family: dict.InternSetInto(ids[:f:f], cb.Family),
			rng:    dict.InternSetInto(ids[f:f+g:f+g], cb.Range),
		}
		ids = ids[f+g:]
	}

	ge := func(x, y int32) bool { return col[x].ge(&col[y]) }
	if cs != nil {
		cs.total, cs.distinct = total, dict.Len()
		ge = func(x, y int32) bool { return col[x].geCounted(&col[y], &cs.st) }
	}
	repOrder := make([]int32, len(reps))
	for c := range repOrder {
		repOrder[c] = int32(c)
	}
	// Descending under the masked total preorder: !ge(x, y) means y is
	// strictly above x. The stable sort only asks cmp(x, y) < 0.
	slices.SortStableFunc(repOrder, func(x, y int32) int {
		if !ge(x, y) {
			return 1
		}
		if !ge(y, x) {
			return -1
		}
		return 0
	})
	valueOf := make([]int32, len(reps))
	v := int32(0)
	for x, c := range repOrder {
		if x > 0 {
			prev := repOrder[x-1]
			if !(ge(c, prev) && ge(prev, c)) {
				v++ // strictly below the previous class: new value rank
			}
		}
		valueOf[c] = v
	}

	// Counting sort on (value rank, index): start[v] is where value v's
	// group begins in order, next[v] its fill cursor.
	start := make([]int, 2*(v+1))
	start, next := start[:v+1], start[v+1:]
	for _, c := range classOf {
		if w := valueOf[c] + 1; w <= v {
			start[w]++
		}
	}
	for w := int32(1); w <= v; w++ {
		start[w] += start[w-1]
	}
	copy(next, start)
	for i, c := range classOf {
		w := valueOf[c]
		rank[i] = start[w]
		order[next[w]] = i
		next[w]++
	}
}
