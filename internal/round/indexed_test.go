package round

import (
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/core"
	"lppa/internal/obs"
)

// TestWithIndexedCandidatesIdenticalResults pins the option's contract:
// indexed candidate generation changes how the conflict graph is found,
// never what it is — outcomes are byte-identical to the all-pairs oracle
// run at the same seed, across worker counts and the interning ablation.
// The optionless row must also equal WithWorkers(1).
func TestWithIndexedCandidatesIdenticalResults(t *testing.T) {
	p, ring, pts, bids := parallelFixture(t, 40, 3, 21)
	shapes := []struct {
		name  string
		extra []Option
	}{
		{"default", nil},
		{"workers3", []Option{WithWorkers(3)}},
		{"noIntern", []Option{WithoutInterning()}},
	}
	for _, sh := range shapes {
		in := func() Input {
			return Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(77))}
		}
		base, err := Run(p, ring, in(), sh.extra...)
		if err != nil {
			t.Fatalf("%s oracle: %v", sh.name, err)
		}
		if sh.extra == nil {
			defaultIsWorkers1(t, sh.name, base, p, ring, in())
		}
		indexed, err := Run(p, ring, in(), append([]Option{WithIndexedCandidates()}, sh.extra...)...)
		if err != nil {
			t.Fatalf("%s indexed: %v", sh.name, err)
		}
		if !indexed.Auctioneer.ConflictGraph().Equal(base.Auctioneer.ConflictGraph()) {
			t.Fatalf("%s: indexed conflict graph differs", sh.name)
		}
		if !reflect.DeepEqual(indexed.Outcome, base.Outcome) {
			t.Fatalf("%s: indexed outcome differs:\n%+v\nvs\n%+v", sh.name, indexed.Outcome, base.Outcome)
		}
		if indexed.Voided != base.Voided || indexed.Violations != base.Violations {
			t.Fatalf("%s: indexed charge tallies differ", sh.name)
		}
	}
}

// TestIndexedCandidateGenerationSpan pins the trace shape: an indexed
// traced round records candidate_generation as a child of the
// conflict_graph phase span.
func TestIndexedCandidateGenerationSpan(t *testing.T) {
	p, ring, pts, bids := parallelFixture(t, 12, 2, 5)
	tracer := obs.NewTracer("auctioneer")
	if _, err := Run(p, ring,
		Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(5))},
		WithWorkers(2), WithTrace(tracer), WithIndexedCandidates()); err != nil {
		t.Fatal(err)
	}
	byName := map[string]*obs.Span{}
	for _, s := range tracer.Snapshot() {
		byName[s.Name] = s
	}
	cg := byName["conflict_graph"]
	gen := byName["candidate_generation"]
	if cg == nil || gen == nil {
		t.Fatalf("missing spans: conflict_graph=%v candidate_generation=%v", cg != nil, gen != nil)
	}
	if gen.Parent != cg.Ctx {
		t.Fatalf("candidate_generation parent = %+v, want conflict_graph ctx %+v", gen.Parent, cg.Ctx)
	}
	// An untraced indexed round must not panic on the nil span path.
	if _, err := Run(p, ring,
		Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(5))},
		WithIndexedCandidates()); err != nil {
		t.Fatal(err)
	}
}
