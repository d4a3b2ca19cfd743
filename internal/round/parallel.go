package round

import (
	"math/rand"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
)

// Options tunes how a private round executes without touching protocol
// semantics.
//
// Deprecated: Options only parameterizes the deprecated RunPrivateOpts;
// use Run with WithWorkers / WithoutInterning.
type Options struct {
	// Workers bounds the goroutines used for submission encoding and
	// conflict-graph construction. 0 means one worker per available CPU
	// (runtime.GOMAXPROCS); 1 pins everything to the calling goroutine.
	Workers int
	// DisableInterning makes the auctioneer evaluate masked set operations
	// on the linear-scan mask.Set oracle instead of interned ID slices
	// (DESIGN.md §5b).
	DisableInterning bool
}

// RunPrivateOpts executes the full LPPA protocol like RunPrivate, but with
// deterministic parallel submission encoding and conflict-graph
// construction. See WithWorkers for the determinism contract (identical
// results for every worker count; different stream than the serial path).
//
// Deprecated: use Run with WithWorkers (and WithoutInterning for the
// ablation).
func RunPrivateOpts(params core.Params, ring *mask.KeyRing, points []geo.Point, bids [][]uint64,
	policy core.DisguisePolicy, rng *rand.Rand, opts Options) (*Result, error) {
	o := []Option{WithWorkers(opts.Workers)}
	if opts.DisableInterning {
		o = append(o, WithoutInterning())
	}
	return Run(params, ring, Input{Points: points, Bids: bids, Policy: policy, Rng: rng}, o...)
}
