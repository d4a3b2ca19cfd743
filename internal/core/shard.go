package core

import (
	"fmt"
	"sync/atomic"

	"lppa/internal/conflict"
	"lppa/internal/mask"
)

// Tile-sharded auctioneer execution (DESIGN.md §5g). The conflict relation
// reaches at most 2λ−1 in each coordinate, so once bidders are grouped
// into tiles whose side is a multiple of 2λ (geo.TileGrid), every conflict
// pair is co-located in at least one tile — as a resident plus a resident
// or border-band visitor — and the union of per-tile conflict graphs is
// exactly the global graph. The rank memos need no sharding: their column
// build (rank.go) emits the global stable sort in one O(n + C) counting
// pass. Allocation stays one global sweep (its rng consumption is
// inherently sequential) of the rank-cursor allocator.
// Everything here is bit-identical to the unsharded round; only the
// graph's work changes: O(n²) → O(Σᵢ nᵢ² + border).

// ShardTile lists one tile's bidders. Residents live in the tile (each
// bidder is a resident of exactly one tile); Visitors live elsewhere but
// their interference square overlaps this tile (the border band), so
// resident–visitor pairs cover every cross-tile conflict. Both slices are
// ascending by bidder index.
type ShardTile struct {
	Residents []int
	Visitors  []int
}

// ShardPlan is the planner's output: the tile membership lists and each
// bidder's home tile. OnShard, when non-nil, is invoked at the start of
// each tile's conflict-graph build (possibly from a worker goroutine) and
// the returned func with the tile's confirmed edge count when it finishes
// — the round layer hangs per-shard tracer spans on it.
type ShardPlan struct {
	Tiles   []ShardTile
	Home    []int
	OnShard func(shard, residents, visitors int) func(edges int)
}

// SetShardPlan switches the auctioneer onto tile-sharded execution: the
// conflict graph is built per tile and merged, and the allocator's memo
// hits are attributed to each bidder's home tile. Results are
// bit-identical to the unsharded auctioneer. Call
// before the first ConflictGraph/GE/Allocate use (like the other knobs,
// the lazily built caches cannot be re-sharded); nil reverts to unsharded.
func (a *Auctioneer) SetShardPlan(p *ShardPlan) error {
	if a.graph != nil || a.rank != nil || a.iloc != nil {
		return fmt.Errorf("core: SetShardPlan after caches were built")
	}
	if p == nil {
		a.plan = nil
		return nil
	}
	n := a.N()
	if len(p.Home) != n {
		return fmt.Errorf("core: shard plan homes %d bidders, want %d", len(p.Home), n)
	}
	seen := make([]bool, n)
	placed := 0
	for s := range p.Tiles {
		t := &p.Tiles[s]
		for _, i := range t.Residents {
			if i < 0 || i >= n {
				return fmt.Errorf("core: shard %d resident %d out of range", s, i)
			}
			if p.Home[i] != s {
				return fmt.Errorf("core: bidder %d resident of shard %d but homed to %d", i, s, p.Home[i])
			}
			if seen[i] {
				return fmt.Errorf("core: bidder %d resident of two shards", i)
			}
			seen[i] = true
			placed++
		}
		for _, i := range t.Visitors {
			if i < 0 || i >= n {
				return fmt.Errorf("core: shard %d visitor %d out of range", s, i)
			}
			if p.Home[i] == s {
				return fmt.Errorf("core: bidder %d visits its own shard %d", i, s)
			}
		}
	}
	if placed != n {
		return fmt.Errorf("core: shard plan places %d of %d bidders", placed, n)
	}
	a.plan = p
	if a.ob != nil {
		a.ob.ensureShardCounters(len(p.Tiles))
	}
	return nil
}

// ShardSizes reports the resident count of every tile — each bidder's tile
// anonymity set from the auctioneer's perspective, the privacy knob the
// audit layer surfaces. Nil when unsharded.
func (a *Auctioneer) ShardSizes() []int {
	if a.plan == nil {
		return nil
	}
	out := make([]int, len(a.plan.Tiles))
	for s := range a.plan.Tiles {
		out[s] = len(a.plan.Tiles[s].Residents)
	}
	return out
}

// ShardIndexStats describes each tile's candidate index after a sharded
// conflict-graph build (forcing the build if needed): the skew guard inside
// each tile is calibrated to that tile's population, not the global n. Nil
// when unsharded.
func (a *Auctioneer) ShardIndexStats() []mask.IndexStats {
	if a.plan == nil {
		return nil
	}
	a.ConflictGraph()
	return append([]mask.IndexStats(nil), a.shardIx...)
}

// mergeAscending merges two ascending disjoint index slices.
func mergeAscending(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// buildGraphSharded is buildGraph's tile-sharded twin: each tile evaluates
// the exact conflict predicate over its own members (residents plus border
// visitors) through a tile-local candidate index, and the per-tile edge
// lists are merged into one graph. Coverage: if i and j conflict, each
// lies inside the other's interference square, so j is a member (resident
// or visitor) of i's home tile and vice versa; every true edge is
// therefore proposed by at least one tile, and AddEdge dedupes the border
// pairs both sides propose. The merged graph is bit-identical to the
// unsharded build.
func (a *Auctioneer) buildGraphSharded() *conflict.Graph {
	n := len(a.locs)
	plan := a.plan
	tiles := plan.Tiles

	iloc, _ := a.internedView()
	var calls, rejects atomic.Uint64
	pred := func(i, j int) bool { return iloc[i].conflicts(&iloc[j]) }
	if a.ob != nil {
		pred = func(i, j int) bool {
			var st mask.IntersectStats
			ok := iloc[i].conflictsCounted(&iloc[j], &st)
			calls.Add(st.Calls)
			rejects.Add(st.BloomRejects)
			return ok
		}
	}
	keys := locationKeys(iloc)

	// Per-tile edge lists (packed i<<32|j with i < j), merged serially
	// below: workers never touch the shared graph's bitset words.
	edges := make([][]uint64, len(tiles))
	ixStats := make([]mask.IndexStats, len(tiles))
	var scanned, emitted atomic.Uint64

	a.stripe(len(tiles), func(t int) {
		tile := &tiles[t]
		var done func(int)
		if plan.OnShard != nil {
			done = plan.OnShard(t, len(tile.Residents), len(tile.Visitors))
		}
		members := mergeAscending(tile.Residents, tile.Visitors)
		var out []uint64
		// Distinct-location grouping: co-located bidders have identical
		// masked families (location masking is deterministic under the
		// shared key), so the predicate is evaluated once per distinct
		// location pair and its verdict fanned out to every member
		// cross-pair. Same-location pairs are unconditional edges — the
		// exact predicate is Chebyshev distance < 2λ, and distance 0 always
		// qualifies. In dense tiles this collapses the quadratic sweep from
		// members² to distinct-locations².
		groupOf := make(map[string]int, len(members))
		groups := make([][]int, 0, len(members))
		for _, m := range members {
			k := keys[m]
			if g, ok := groupOf[k]; ok {
				groups[g] = append(groups[g], m)
			} else {
				groupOf[k] = len(groups)
				groups = append(groups, []int{m})
			}
		}
		// Tile-local inverted index over one representative per distinct
		// location: groups are numbered 0..G-1 in first-appearance order,
		// and the skew guard's auto threshold max(64, G/8) is calibrated to
		// the tile's distinct population G.
		ix := mask.NewIndex(len(groups))
		for _, A := range groups {
			ix.Add(iloc[A[0]].xFamily, iloc[A[0]].xRange)
		}
		cur := ix.Cursor()
		for ga, A := range groups {
			for x := range A {
				for y := x + 1; y < len(A); y++ {
					out = append(out, uint64(A[x])<<32|uint64(A[y]))
				}
			}
			for _, gb := range cur.Row(ga) {
				B := groups[gb]
				if !pred(A[0], B[0]) {
					continue
				}
				for _, i := range A {
					for _, j := range B {
						if i < j {
							out = append(out, uint64(i)<<32|uint64(j))
						} else {
							out = append(out, uint64(j)<<32|uint64(i))
						}
					}
				}
			}
		}
		s, e := cur.Stats()
		scanned.Add(s)
		emitted.Add(e)
		ixStats[t] = ix.Stats()
		edges[t] = out
		if done != nil {
			done(len(out))
		}
	})

	g := conflict.NewGraph(n)
	for _, out := range edges {
		for _, e := range out {
			g.AddEdge(int(e>>32), int(uint32(e)))
		}
	}
	a.shardIx = ixStats

	if a.ob != nil {
		a.ob.comparisons.Add(calls.Load())
		a.ob.bloomRejects.Add(rejects.Load())
		a.ob.indexPostings.Add(scanned.Load())
		a.ob.indexCandidates.Add(emitted.Load())
		a.ob.indexConfirms.Add(uint64(g.Edges()))
	}
	return g
}

// locationKeys derives one grouping key per bidder from the interned IDs
// of its coordinate families. The masked family determines the coordinate
// (the full-width prefix differs between any two values) and interned IDs
// are canonical within the auctioneer's dictionary, so keys[i] == keys[j]
// exactly when i and j submitted the same location. The X-run length is
// prefixed so (xFamily, yFamily) boundaries cannot alias across bidders.
func locationKeys(iloc []internedLocation) []string {
	keys := make([]string, len(iloc))
	var ids []uint32
	var buf []byte
	for i := range iloc {
		ids = iloc[i].xFamily.AppendIDs(ids[:0])
		nx := len(ids)
		ids = iloc[i].yFamily.AppendIDs(ids)
		buf = buf[:0]
		buf = append(buf, byte(nx), byte(nx>>8))
		for _, id := range ids {
			buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		keys[i] = string(buf)
	}
	return keys
}
