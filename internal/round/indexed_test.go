package round

import (
	"math/rand"
	"testing"

	"lppa/internal/core"
	"lppa/internal/obs"
)

// TestIndexedCandidateGenerationSpan pins the trace shape: every traced
// round — unsharded over the global candidate index, or sharded over
// tile-local ones — records candidate_generation as a child of the
// conflict_graph phase span.
func TestIndexedCandidateGenerationSpan(t *testing.T) {
	p, ring, pts, bids := parallelFixture(t, 12, 2, 5)
	in := func() Input {
		return Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(5))}
	}
	for _, tc := range []struct {
		tag  string
		opts []Option
	}{
		{"unsharded", []Option{WithWorkers(2)}},
		{"shards2", []Option{WithWorkers(2), WithShards(2)}},
	} {
		tracer := obs.NewTracer("auctioneer")
		if _, err := Run(p, ring, in(), append(tc.opts, WithTrace(tracer))...); err != nil {
			t.Fatal(err)
		}
		byName := map[string]*obs.Span{}
		for _, s := range tracer.Snapshot() {
			byName[s.Name] = s
		}
		cg := byName["conflict_graph"]
		gen := byName["candidate_generation"]
		if cg == nil || gen == nil {
			t.Fatalf("%s: missing spans: conflict_graph=%v candidate_generation=%v", tc.tag, cg != nil, gen != nil)
		}
		if gen.Parent != cg.Ctx {
			t.Fatalf("%s: candidate_generation parent = %+v, want conflict_graph ctx %+v", tc.tag, gen.Parent, cg.Ctx)
		}
		// An untraced round must not panic on the nil span path.
		if _, err := Run(p, ring, in(), tc.opts...); err != nil {
			t.Fatal(err)
		}
	}
}
