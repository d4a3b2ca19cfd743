package core

import (
	"fmt"
	"sync"

	"lppa/internal/conflict"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/prefix"
)

// LocationSubmission is what a bidder reveals about its position: masked
// prefix families of its coordinates and masked prefix covers of its
// interference ranges (section IV.A). The auctioneer can evaluate the
// pairwise conflict predicate and nothing else.
type LocationSubmission struct {
	XFamily, YFamily mask.Set // H_g0(G(loc_x)), H_g0(G(loc_y))
	XRange, YRange   mask.Set // H_g0(Q([loc_x ± (2λ−1)])), same for y
}

// NewLocationSubmission builds the masked location submission for a bidder
// at point pt. The interference predicate is strict (|Δ| < 2λ), so with
// integer coordinates the submitted range is [loc − (2λ−1), loc + (2λ−1)],
// clamped to the coordinate domain.
func NewLocationSubmission(params Params, ring *mask.KeyRing, pt geo.Point) (*LocationSubmission, error) {
	enc, err := NewLocationEncoder(params, ring)
	if err != nil {
		return nil, err
	}
	return enc.Encode(pt)
}

// LocationEncoder builds masked location submissions on one reusable
// location masker and prefix scratch, so an encoder per goroutine
// amortizes the HMAC state across every bidder it encodes. It is not safe
// for concurrent use; Clone gives each goroutine its own.
type LocationEncoder struct {
	params  Params
	masker  *mask.Masker
	scratch []uint64
}

// NewLocationEncoder returns a location encoder under the ring's location
// key.
func NewLocationEncoder(params Params, ring *mask.KeyRing) (*LocationEncoder, error) {
	masker, err := mask.NewMasker(ring.G0)
	if err != nil {
		return nil, fmt.Errorf("core: location masker: %w", err)
	}
	return &LocationEncoder{params: params, masker: masker}, nil
}

// Clone returns an independent encoder over the same key and parameters.
func (e *LocationEncoder) Clone() *LocationEncoder {
	return &LocationEncoder{params: e.params, masker: e.masker.Clone()}
}

// Encode is NewLocationSubmission on the encoder's masker. The four sets
// share one allocation.
func (e *LocationEncoder) Encode(pt geo.Point) (*LocationSubmission, error) {
	params := e.params
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if pt.X > params.MaxX || pt.Y > params.MaxY {
		return nil, fmt.Errorf("core: point (%d,%d) outside domain (%d,%d)", pt.X, pt.Y, params.MaxX, params.MaxY)
	}
	delta := 2*params.Lambda - 1
	wx, wy := params.CoordWidthX(), params.CoordWidthY()

	xlo, xhi := geo.ClampRange(pt.X, delta, params.MaxX)
	ylo, yhi := geo.ClampRange(pt.Y, delta, params.MaxY)

	// All four numericalized sets go into the scratch back to back, so the
	// digest block is sized exactly.
	e.scratch = prefix.AppendNumericalizedFamily(e.scratch[:0], pt.X, wx)
	yf := len(e.scratch)
	e.scratch = prefix.AppendNumericalizedFamily(e.scratch, pt.Y, wy)
	xr := len(e.scratch)
	e.scratch = prefix.AppendNumericalizedCover(e.scratch, xlo, xhi, wx)
	yr := len(e.scratch)
	e.scratch = prefix.AppendNumericalizedCover(e.scratch, ylo, yhi, wy)
	block := make([]mask.Digest, len(e.scratch))
	set := func(lo, hi int) mask.Set {
		return e.masker.MaskSetInto(block[lo:lo:hi], e.scratch[lo:hi])
	}
	return &LocationSubmission{
		XFamily: set(0, yf),
		YFamily: set(yf, xr),
		XRange:  set(xr, yr),
		YRange:  set(yr, len(e.scratch)),
	}, nil
}

// NewLocationSubmissions builds the masked location submissions for a
// whole population, sharding bidders across at most workers goroutines
// (≤ 1 runs serially). Location masking draws no randomness, so the result
// is identical to calling NewLocationSubmission per point in order, for
// every worker count. Each worker reuses one LocationEncoder across its
// bidders.
func NewLocationSubmissions(params Params, ring *mask.KeyRing, pts []geo.Point, workers int) ([]*LocationSubmission, error) {
	enc, err := NewLocationEncoder(params, ring)
	if err != nil {
		return nil, err
	}
	// Duplicate points share one submission: masking is deterministic under
	// the shared key, so equal points produce byte-identical submissions,
	// and submissions are immutable once built. first[d] remembers the
	// earliest bidder at each distinct point — distinct points are visited
	// in first-appearance order, so the reported bidder on failure is the
	// same one the per-bidder sweep would have blamed.
	uniq := make(map[geo.Point]int, len(pts))
	upts := make([]geo.Point, 0, len(pts))
	first := make([]int, 0, len(pts))
	slot := make([]int, len(pts))
	for i, pt := range pts {
		d, ok := uniq[pt]
		if !ok {
			d = len(upts)
			uniq[pt] = d
			upts = append(upts, pt)
			first = append(first, i)
		}
		slot[i] = d
	}

	usubs := make([]*LocationSubmission, len(upts))
	workers = mask.Workers(workers, len(upts))
	if workers <= 1 {
		for d, pt := range upts {
			if usubs[d], err = enc.Encode(pt); err != nil {
				return nil, fmt.Errorf("core: bidder %d location: %w", first[d], err)
			}
		}
	} else {
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				local := enc.Clone()
				for d := w; d < len(upts); d += workers {
					sub, err := local.Encode(upts[d])
					if err != nil {
						errs[w] = fmt.Errorf("core: bidder %d location: %w", first[d], err)
						return
					}
					usubs[d] = sub
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	out := make([]*LocationSubmission, len(pts))
	for i, d := range slot {
		out[i] = usubs[d]
	}
	return out, nil
}

// Conflicts evaluates the masked conflict predicate between two
// submissions: i's coordinate families must intersect j's range covers on
// both axes (section IV.A step iv). The predicate is symmetric because the
// underlying intervals share the same half-width.
func Conflicts(a, b *LocationSubmission) bool {
	return a.XFamily.Intersects(b.XRange) && a.YFamily.Intersects(b.YRange)
}

// BuildConflictGraph constructs the interference graph from masked
// submissions only — the auctioneer-side half of the Private Location
// Submission protocol. The O(n) interning pass up front turns each of the
// O(n²) predicate evaluations into sorted-ID merges behind a Bloom quick
// reject (intern.go); the graph is identical to evaluating Conflicts
// directly, pinned by the representation-equivalence tests.
func BuildConflictGraph(subs []*LocationSubmission) *conflict.Graph {
	iloc, _, _ := internLocations(subs, nil)
	return conflict.BuildFromPredicate(len(subs), func(i, j int) bool {
		return iloc[i].conflicts(&iloc[j])
	})
}

// BuildConflictGraphParallel is BuildConflictGraph with the O(n²) pairwise
// predicate sharded across at most workers goroutines. Interning happens
// once, serially, before the sweep; the interned sets are immutable and
// read concurrently without synchronization, so the resulting graph is
// bit-for-bit identical to the serial build for every worker count.
func BuildConflictGraphParallel(subs []*LocationSubmission, workers int) *conflict.Graph {
	iloc, _, _ := internLocations(subs, nil)
	return conflict.BuildFromPredicateParallel(len(subs), func(i, j int) bool {
		return iloc[i].conflicts(&iloc[j])
	}, mask.Workers(workers, len(subs)))
}
