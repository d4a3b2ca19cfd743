package core

import (
	"fmt"
	"math/rand"
	"sort"

	"lppa/internal/auction"
	"lppa/internal/conflict"
	"lppa/internal/mask"
)

// Auctioneer is the untrusted party running PSD. It holds only masked
// submissions; every method corresponds to an operation the protocol
// legitimately grants it (and which a curious auctioneer may also abuse —
// the transcript methods are what the attack experiments consume).
//
// An Auctioneer is not safe for concurrent use: the conflict graph and the
// per-column comparison memo are built lazily on first use. Submissions
// are immutable once handed to NewAuctioneer, so neither cache is ever
// invalidated.
type Auctioneer struct {
	params  Params
	locs    []*LocationSubmission
	bids    []*BidSubmission
	graph   *conflict.Graph
	workers int

	// noIntern forces every masked set operation back onto mask.Set's
	// linear scans (the test oracle for ablation and equivalence tests;
	// results are identical either way by construction).
	noIntern bool

	// indexed switches conflict-candidate generation onto the inverted
	// digest index (EnableIndexedCandidates, graphbuild.go). iloc and
	// locIndex cache the interned location view and the index, built once by
	// internedView — submissions are immutable, so neither is invalidated.
	indexed  bool
	iloc     []internedLocation
	locIndex *mask.Index

	// plan, when non-nil, switches execution to tile-sharded form
	// (shard.go): per-tile conflict graphs and rank-memo sorts, merged
	// bit-identically, plus the rank-cursor allocator. shardIx keeps the
	// per-tile candidate-index stats of the last sharded indexed build.
	plan    *ShardPlan
	shardIx []mask.IndexStats

	// Per-column comparison memo, built lazily by columnRank: rankOrder[r]
	// is all bidders sorted by descending masked bid (ties in index
	// order), rank[r][i] the dense rank of bidder i (equal masked bids
	// share a rank). One O(n log n) pass of masked set intersections per
	// column replaces the O(n) re-intersections of every later scan. The
	// sort itself runs on interned sets (intern.go) unless noIntern is
	// set; the memo it leaves behind is representation-independent.
	rank      [][]int
	rankOrder [][]int
	// colCalls[r] is the masked-intersection count spent building column
	// r's rank memo. Filled only on observed auctioneers (SetObserver):
	// the unobserved hot path stays uncounted and byte-identical.
	colCalls []uint64

	// ob, when non-nil, routes lazy cache builds and memo lookups through
	// their counted twins (observe.go). Nil — the default — keeps every
	// hot path on the exact unobserved code.
	ob *aucObs
}

// NewAuctioneer collects one location and one bid submission per bidder.
func NewAuctioneer(params Params, locs []*LocationSubmission, bids []*BidSubmission) (*Auctioneer, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(locs) != len(bids) {
		return nil, fmt.Errorf("core: %d location submissions vs %d bid submissions", len(locs), len(bids))
	}
	if len(locs) == 0 {
		return nil, fmt.Errorf("core: no bidders")
	}
	for i, b := range bids {
		if len(b.Channels) != params.Channels {
			return nil, fmt.Errorf("core: bidder %d submitted %d channel bids, want %d",
				i, len(b.Channels), params.Channels)
		}
	}
	return &Auctioneer{params: params, locs: locs, bids: bids}, nil
}

// N reports the number of bidders.
func (a *Auctioneer) N() int { return len(a.bids) }

// Reset re-arms the auctioneer for a new population under the same
// params: the submissions are swapped and every lazily built,
// population-specific cache (conflict graph, interned views, candidate
// index, shard state, rank memos, comparison tallies) is dropped. The
// tuning knobs — workers, interning, indexed candidates, observer — also
// return to their post-NewAuctioneer defaults, so the next round
// re-applies exactly the options it was asked for instead of inheriting
// a previous epoch's. This is the epochal service's reuse path
// (internal/epoch): one auctioneer per service lifetime instead of one
// per round.
func (a *Auctioneer) Reset(locs []*LocationSubmission, bids []*BidSubmission) error {
	if len(locs) != len(bids) {
		return fmt.Errorf("core: %d location submissions vs %d bid submissions", len(locs), len(bids))
	}
	if len(locs) == 0 {
		return fmt.Errorf("core: no bidders")
	}
	for i, b := range bids {
		if len(b.Channels) != a.params.Channels {
			return fmt.Errorf("core: bidder %d submitted %d channel bids, want %d",
				i, len(b.Channels), a.params.Channels)
		}
	}
	a.locs, a.bids = locs, bids
	a.graph = nil
	a.workers = 0
	a.noIntern = false
	a.indexed = false
	a.iloc = nil
	a.locIndex = nil
	a.plan = nil
	a.shardIx = nil
	a.rank = nil
	a.rankOrder = nil
	a.colCalls = nil
	a.ob = nil
	return nil
}

// SetWorkers bounds the goroutines used for conflict-graph construction.
// w ≤ 1 keeps the build serial. The graph is bit-for-bit identical for
// every worker count, so this knob never changes auction results.
func (a *Auctioneer) SetWorkers(w int) { a.workers = w }

// DisableInterning switches the auctioneer back to mask.Set's linear-scan
// intersections for every masked operation (ablation benchmarks and equivalence tests).
// Call it before the first ConflictGraph/GE/Allocate use; the lazily
// built caches are representation-independent, so flipping it later has
// no effect on answers already memoized.
func (a *Auctioneer) DisableInterning() { a.noIntern = true }

// ConflictGraph lazily builds and returns the masked-submission conflict
// graph through the shared builder (graphbuild.go).
func (a *Auctioneer) ConflictGraph() *conflict.Graph {
	if a.graph == nil {
		a.graph = a.buildGraph()
	}
	return a.graph
}

// rawGE evaluates the masked comparison directly: one Family ∩ Range set
// intersection.
func (a *Auctioneer) rawGE(r, i, j int) bool {
	return CompareGE(&a.bids[i].Channels[r], &a.bids[j].Channels[r])
}

// geFactory mints comparator instances for one column. Each call returns
// a comparator accumulating its masked-intersection tallies into the given
// stats (observed auctioneers only; unobserved instances ignore it), so
// parallel per-tile sorts get race-free private instances over the one
// shared interned column.
type geFactory = func(st *mask.IntersectStats) func(r, i, j int) bool

// columnGE interns column r (once, at factory creation — the fast path
// unless noIntern) and returns the comparator factory plus the interned
// column itself (nil when interning is off) for callers that can exploit
// digest-set equality directly, like the sharded sort's bid classes.
// Interned and uninterned comparators agree on every pair: CompareGE
// outcomes depend only on digest equality, which interning preserves
// exactly.
func (a *Auctioneer) columnGE(r int) (geFactory, []internedChannelBid) {
	if a.noIntern {
		if a.ob == nil {
			return func(*mask.IntersectStats) func(r, i, j int) bool { return a.rawGE }, nil
		}
		return func(st *mask.IntersectStats) func(r, i, j int) bool {
			return func(r, i, j int) bool { st.Calls++; return a.rawGE(r, i, j) }
		}, nil
	}
	col, total, distinct := internColumn(a.bids, r)
	if a.ob != nil {
		a.ob.noteIntern(total, distinct)
		return func(st *mask.IntersectStats) func(r, i, j int) bool {
			return func(r, i, j int) bool { return col[i].geCounted(&col[j], st) }
		}, col
	}
	return func(*mask.IntersectStats) func(r, i, j int) bool {
		return func(r, i, j int) bool { return col[i].ge(&col[j]) }
	}, col
}

// columnRank builds (once) and returns the dense rank memo of column r.
// Masked comparison is order-preserving — CompareGE(i, j) ⟺ the hidden
// blinded value of i is ≥ j's — so each column admits a total preorder and
// a single stable sort captures every pairwise outcome; under a shard plan
// the sort runs per tile and merges (shard.go), leaving the bit-identical
// memo. Submissions are immutable after NewAuctioneer, hence the memo
// never needs invalidation.
func (a *Auctioneer) columnRank(r int) []int {
	if r < 0 || r >= a.params.Channels {
		panic(fmt.Sprintf("core: channel %d out of range [0,%d)", r, a.params.Channels))
	}
	if a.rank == nil {
		a.rank = make([][]int, a.params.Channels)
		a.rankOrder = make([][]int, a.params.Channels)
	}
	if a.rank[r] == nil {
		n := a.N()
		mk, col := a.columnGE(r)
		var st mask.IntersectStats
		var order []int
		if a.plan != nil {
			order = a.shardedOrder(r, mk, col, &st)
		} else {
			order = make([]int, n)
			for i := range order {
				order[i] = i
			}
			ge := mk(&st)
			sort.SliceStable(order, func(x, y int) bool {
				i, j := order[x], order[y]
				// Strictly greater: GE(i,j) && !GE(j,i). Ties keep index order.
				return ge(r, i, j) && !ge(r, j, i)
			})
		}
		ge := mk(&st)
		rank := make([]int, n)
		rk := 0
		for x, i := range order {
			if x > 0 {
				prev := order[x-1]
				if !(ge(r, i, prev) && ge(r, prev, i)) {
					rk = x // strictly below prev: new rank group
				}
			}
			rank[i] = rk
		}
		a.rank[r] = rank
		a.rankOrder[r] = order
		if a.ob != nil {
			if a.colCalls == nil {
				a.colCalls = make([]uint64, a.params.Channels)
			}
			a.colCalls[r] = st.Calls
			a.ob.rankBuilds.Inc()
			a.ob.flushStats(&st)
		}
	}
	return a.rank[r]
}

// GE reports whether bidder i's masked bid on channel r is at least
// bidder j's. Answers come from the per-column rank memo, so repeated
// column scans (the allocator revisits each column every epoch) cost one
// comparison instead of one masked set intersection.
func (a *Auctioneer) GE(r, i, j int) bool {
	rank := a.columnRank(r)
	return rank[i] <= rank[j]
}

// fullPresent builds the all-true presence matrix in two allocations (one
// flat backing array, one row index) instead of n+1.
func fullPresent(n, k int) [][]bool {
	flat := make([]bool, n*k)
	for i := range flat {
		flat[i] = true
	}
	present := make([][]bool, n)
	for i := range present {
		present[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return present
}

// allocateAwards is the one allocation entry point behind
// Allocate/AllocateWithValidity/AllocateAwards. Unsharded it runs the
// paper's Algorithm 3 against the memo-backed comparator; under a shard
// plan it runs the rank-cursor engine directly on the per-column memos
// (auction.AllocateAwardsOrdered), which is bit-identical by construction
// and skips the two O(n) comparator sweeps per award.
func (a *Auctioneer) allocateAwards(valid auction.Validity, rng *rand.Rand) ([]auction.Award, []auction.Assignment, error) {
	n, k := a.N(), a.params.Channels
	if a.plan != nil {
		column := func(r int) (order, rank []int) {
			a.columnRank(r)
			return a.rankOrder[r], a.rank[r]
		}
		return auction.AllocateAwardsOrdered(n, k, fullPresent(n, k), a.ConflictGraph(), column, valid, a.servedHook(), rng)
	}
	return auction.AllocateAwards(n, k, fullPresent(n, k), a.ConflictGraph(), a.geFunc(), valid, rng)
}

// Allocate runs the private spectrum allocation (Algorithm 3 over masked
// bids). Every bidder participates on every channel — the auctioneer
// cannot tell zeros apart, which is precisely why disguised zeros can win
// and later be voided by the TTP.
func (a *Auctioneer) Allocate(rng *rand.Rand) ([]auction.Assignment, error) {
	awards, _, err := a.allocateAwards(nil, rng)
	if err != nil {
		return nil, err
	}
	assignments := make([]auction.Assignment, len(awards))
	for i, aw := range awards {
		assignments[i] = aw.Assignment
	}
	return assignments, nil
}

// SealedBid returns the opaque TTP ciphertext of bidder i's bid on
// channel r, for relay to the TTP (validity checks and charging).
func (a *Auctioneer) SealedBid(i, r int) []byte {
	return a.bids[i].Channels[r].Sealed
}

// AllocateWithValidity runs the private allocation with an interactive
// TTP validity oracle: each prospective award is checked before it stands,
// and void awards (disguised or true zeros) waste the channel in the
// winner's neighborhood without expelling the bidder.
func (a *Auctioneer) AllocateWithValidity(valid auction.Validity, rng *rand.Rand) (awarded, voided []auction.Assignment, err error) {
	awards, voided, err := a.allocateAwards(valid, rng)
	if err != nil {
		return nil, nil, err
	}
	assignments := make([]auction.Assignment, len(awards))
	for i, aw := range awards {
		assignments[i] = aw.Assignment
	}
	return assignments, voided, nil
}

// RankChannel returns all bidders ordered by descending masked bid on
// channel r. This is transcript information a curious auctioneer can
// always compute (order-preserving masking), and it feeds the Fig. 5
// t-largest BCM attack. The ordering comes straight from the per-column
// memo (built on first use); callers get a private copy.
func (a *Auctioneer) RankChannel(r int) []int {
	a.columnRank(r)
	return append([]int(nil), a.rankOrder[r]...)
}

// Rankings returns RankChannel for every channel.
func (a *Auctioneer) Rankings() [][]int {
	out := make([][]int, a.params.Channels)
	for r := range out {
		out[r] = a.RankChannel(r)
	}
	return out
}

// DigestCounts returns, per bidder, how many masked digests that bidder
// exposed to the auctioneer: the location families and range covers plus
// every channel bid's family and cover. This is the auctioneer-observable
// surface the privacy audit (internal/obs/audit) tallies.
func (a *Auctioneer) DigestCounts() []int {
	out := make([]int, a.N())
	for i := range out {
		l := a.locs[i]
		total := l.XFamily.Len() + l.YFamily.Len() + l.XRange.Len() + l.YRange.Len()
		for r := range a.bids[i].Channels {
			cb := &a.bids[i].Channels[r]
			total += cb.Family.Len() + cb.Range.Len()
		}
		out[i] = total
	}
	return out
}

// ComparisonsPerChannel returns how many masked set intersections the
// rank-memo build spent per channel — the auctioneer's per-column work,
// and an upper bound on the ordering information each column leaked.
// Populated only on observed auctioneers (SetObserver) and only for
// columns actually built; unobserved runs return nil.
func (a *Auctioneer) ComparisonsPerChannel() []uint64 {
	if a.colCalls == nil {
		return nil
	}
	return append([]uint64(nil), a.colCalls...)
}

// ChargeRequest is what the auctioneer forwards to the TTP for one awarded
// channel: the opaque sealed value plus the winner's masked prefix family,
// which the TTP uses to verify the bidder did not present one price to the
// auction and another to the cashier.
type ChargeRequest struct {
	Bidder  int
	Channel int
	Sealed  []byte
	Family  []mask.Digest
	// RunnerUpSealed, when present, switches the charge to second-price:
	// the TTP unblinds it and charges the winner the runner-up's true bid
	// (zero when the runner-up was itself a zero). Nil means first-price.
	RunnerUpSealed []byte
}

// ChargeRequests assembles the TTP batch for a set of assignments
// (section V.C.2: batching reduces TTP online time). All sealed copies and
// family digests share two flat backing arrays — one allocation each for
// the whole batch instead of two per request; full-capacity subslices keep
// the requests append-isolated from one another.
func (a *Auctioneer) ChargeRequests(assignments []auction.Assignment) []ChargeRequest {
	sealedTotal, famTotal := 0, 0
	for _, as := range assignments {
		cb := &a.bids[as.Bidder].Channels[as.Channel]
		sealedTotal += len(cb.Sealed)
		famTotal += cb.Family.Len()
	}
	sealedBuf := make([]byte, 0, sealedTotal)
	famBuf := make([]mask.Digest, 0, famTotal)
	reqs := make([]ChargeRequest, len(assignments))
	for idx, as := range assignments {
		cb := &a.bids[as.Bidder].Channels[as.Channel]
		s0 := len(sealedBuf)
		sealedBuf = append(sealedBuf, cb.Sealed...)
		f0 := len(famBuf)
		famBuf = cb.Family.AppendDigests(famBuf)
		reqs[idx] = ChargeRequest{
			Bidder:  as.Bidder,
			Channel: as.Channel,
			Sealed:  sealedBuf[s0:len(sealedBuf):len(sealedBuf)],
			Family:  famBuf[f0:len(famBuf):len(famBuf)],
		}
	}
	return reqs
}

// AllocateAwards is Allocate with award-time runner-ups, for second-price
// charging.
func (a *Auctioneer) AllocateAwards(rng *rand.Rand) ([]auction.Award, error) {
	awards, _, err := a.allocateAwards(nil, rng)
	return awards, err
}

// ChargeRequestsSecondPrice assembles a second-price TTP batch: each
// request carries the winner's sealed bid (validity + price/prefix
// verification) and the runner-up's sealed bid (the clearing price). Like
// ChargeRequests, winner and runner-up sealed copies share one flat buffer
// and family digests another, so the batch costs two allocations instead
// of three per award.
func (a *Auctioneer) ChargeRequestsSecondPrice(awards []auction.Award) []ChargeRequest {
	sealedTotal, famTotal := 0, 0
	for _, aw := range awards {
		cb := &a.bids[aw.Bidder].Channels[aw.Channel]
		sealedTotal += len(cb.Sealed)
		famTotal += cb.Family.Len()
		if aw.RunnerUp >= 0 {
			sealedTotal += len(a.bids[aw.RunnerUp].Channels[aw.Channel].Sealed)
		}
	}
	sealedBuf := make([]byte, 0, sealedTotal)
	famBuf := make([]mask.Digest, 0, famTotal)
	reqs := make([]ChargeRequest, len(awards))
	for idx, aw := range awards {
		cb := &a.bids[aw.Bidder].Channels[aw.Channel]
		s0 := len(sealedBuf)
		sealedBuf = append(sealedBuf, cb.Sealed...)
		f0 := len(famBuf)
		famBuf = cb.Family.AppendDigests(famBuf)
		reqs[idx] = ChargeRequest{
			Bidder:  aw.Bidder,
			Channel: aw.Channel,
			Sealed:  sealedBuf[s0:len(sealedBuf):len(sealedBuf)],
			Family:  famBuf[f0:len(famBuf):len(famBuf)],
		}
		if aw.RunnerUp >= 0 {
			r0 := len(sealedBuf)
			sealedBuf = append(sealedBuf, a.bids[aw.RunnerUp].Channels[aw.Channel].Sealed...)
			reqs[idx].RunnerUpSealed = sealedBuf[r0:len(sealedBuf):len(sealedBuf)]
		}
	}
	return reqs
}
