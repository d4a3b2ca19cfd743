package core

import (
	"sync/atomic"
	"time"

	"lppa/internal/conflict"
	"lppa/internal/mask"
)

// The one conflict-graph construction path behind Auctioneer.ConflictGraph
// (DESIGN.md §5f): candidates come from the inverted index over interned
// masked digests (mask.Index) — posting-list self-joins on the X axis,
// with the skew guard falling back to pairwise probing for hot rows — and
// only candidates are confirmed with the exact intersection predicate.
// Worker count and observation meet here too, so the unsharded build has
// exactly one shape; the sharded build (shard.go) runs the same strategy
// over tile-local indexes. The all-pairs BuildConflictGraph stays the
// verification oracle, and the equivalence suite pins this graph
// bit-identical to it.

// PrepareCandidates eagerly runs the candidate-generation setup the
// conflict graph needs: interning the population and, unsharded, posting
// the inverted index during the same ingest pass. ConflictGraph does the
// same work lazily; round tracing calls this first so the setup lands in
// its own candidate_generation span.
func (a *Auctioneer) PrepareCandidates() { a.internedView() }

// IndexStats seals and describes the global candidate index, or a zero
// value under a shard plan. Diagnostic surface for benchmarks and tests;
// building the view on demand mirrors ConflictGraph's laziness.
func (a *Auctioneer) IndexStats() mask.IndexStats {
	if a.plan != nil {
		// Sharded builds use tile-local indexes — see ShardIndexStats
		// (shard.go) — and never build the global one.
		return mask.IndexStats{}
	}
	_, ix := a.internedView()
	return ix.Stats()
}

// internedView interns the population once — posting the inverted candidate
// index incrementally during the same ingest pass when unsharded — and
// caches both on the auctioneer. Observed auctioneers fold the intern
// tallies in here and time the indexed ingest into lppa_index_build_seconds.
func (a *Auctioneer) internedView() ([]internedLocation, *mask.Index) {
	if a.iloc != nil {
		return a.iloc, a.locIndex
	}
	var start time.Time
	if a.ob != nil {
		start = time.Now()
	}
	var ix *mask.Index
	if a.plan == nil {
		// Sharded builds post tile-local indexes per shard instead
		// (buildGraphSharded); a global index would go unread.
		ix = mask.NewIndex(len(a.locs))
	}
	iloc, total, distinct := internLocations(a.locs, ix)
	a.iloc, a.locIndex = iloc, ix
	if a.ob != nil {
		a.ob.noteIntern(total, distinct)
		if ix != nil {
			a.ob.indexBuild.Observe(time.Since(start).Seconds())
		}
	}
	return a.iloc, a.locIndex
}

// buildGraph constructs the conflict graph. Every worker count and
// observation setting yields the bit-identical graph: counted predicates
// delegate to the uncounted intersections, the parallel build fixes each
// adjacency bit's position by (i, j) alone, and the indexed candidates are
// a sound superset confirmed by the same predicate the all-pairs oracle
// runs.
func (a *Auctioneer) buildGraph() *conflict.Graph {
	if a.plan != nil {
		return a.buildGraphSharded()
	}
	n := len(a.locs)
	workers := 1
	if a.workers > 1 {
		workers = mask.Workers(a.workers, n)
	}
	iloc, ix := a.internedView()

	var calls, rejects atomic.Uint64
	pred := func(i, j int) bool { return iloc[i].conflicts(&iloc[j]) }
	if a.ob != nil {
		// Counted twin: tallies accumulate in atomics (the parallel sweep
		// shares the predicate across workers) and land in the registry
		// once, after the build.
		pred = func(i, j int) bool {
			var st mask.IntersectStats
			ok := iloc[i].conflictsCounted(&iloc[j], &st)
			calls.Add(st.Calls)
			rejects.Add(st.BloomRejects)
			return ok
		}
	}

	var cursors []*mask.IndexCursor
	g := conflict.BuildFromCandidatesParallel(n, func() conflict.CandidateCursor {
		c := ix.Cursor()
		cursors = append(cursors, c) // called serially, one per worker
		return c
	}, pred, workers)

	if a.ob != nil {
		var scanned, emitted uint64
		for _, c := range cursors {
			s, e := c.Stats()
			scanned += s
			emitted += e
		}
		a.ob.comparisons.Add(calls.Load())
		a.ob.bloomRejects.Add(rejects.Load())
		a.ob.indexPostings.Add(scanned)
		a.ob.indexCandidates.Add(emitted)
		a.ob.indexConfirms.Add(uint64(g.Edges()))
	}
	return g
}
