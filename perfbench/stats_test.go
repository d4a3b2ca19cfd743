package main

import "testing"

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 50}, {5, 50}, {19, 50}, {20, 50}, {22, 54}, {25, 60}, {30, 66}, {50, 80}, {100, 90}, {1000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	// From 20 samples on, the tail is the highest percentile whose
	// nearest-rank sample has at least ten samples beyond it.
	for n := 20; n <= 2000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		beyond := func(p int) int { return n - 1 - int(percentile(xs, p)) }
		p := tailPercentile(n)
		if beyond(p) < tailBeyond {
			t.Fatalf("n=%d: p%d leaves %d samples beyond it", n, p, beyond(p))
		}
		if p < 100 && beyond(p+1) >= tailBeyond {
			t.Fatalf("n=%d: p%d is not the highest percentile leaving %d beyond", n, p, tailBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct {
		p    int
		want float64
	}{{0, 1}, {20, 1}, {21, 2}, {50, 3}, {80, 4}, {100, 5}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%d = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of no samples = %v, want 0", got)
	}
}
