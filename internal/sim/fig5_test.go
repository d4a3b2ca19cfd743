package sim

import (
	"bytes"
	"testing"
)

// TestFig5WorkerInvariance pins that a seed alone fixes the paper's Fig. 5
// tables: the attack sweep (a)–(d) and the auction-performance sweep
// (e)(f) render byte-identical tables at one and two workers.
func TestFig5WorkerInvariance(t *testing.T) {
	area := smallDataset(t).Areas[2]
	cfg := DefaultFig5Config()
	cfg.Bidders = 25
	cfg.Channels = 30
	cfg.ZeroReplace = []float64{0.2, 0.6, 1.0}
	cfg.KeepFractions = []float64{0.25, 0.5}
	cfg.Trials = 1

	render := func(workers int) string {
		t.Helper()
		c := cfg
		c.Workers = workers
		points, baseline, err := Fig5AD(area, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		ef, err := Fig5EF(area, c, []int{30}, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Fig5ADTable(points, baseline).Render(&buf); err != nil {
			t.Fatal(err)
		}
		if err := Fig5EFTable(ef).Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one, two := render(1), render(2)
	if one != two {
		t.Errorf("Fig. 5 tables differ between 1 and 2 workers:\n--- workers=1\n%s--- workers=2\n%s", one, two)
	}
}
