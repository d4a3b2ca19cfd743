package mask

import (
	"math/rand"
	"reflect"
	"testing"
)

// refDedup is the map-backed oracle for Set construction: first
// occurrences, in input order.
func refDedup(ds []Digest) []Digest {
	seen := map[Digest]bool{}
	var out []Digest
	for _, d := range ds {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// refPadTo is the map-backed PadTo the slice-backed Set replaced: the
// padding it draws and the rng it consumes are the contract.
func refPadTo(ds []Digest, target int, rng *rand.Rand) []Digest {
	seen := map[Digest]bool{}
	for _, d := range ds {
		seen[d] = true
	}
	out := append([]Digest(nil), ds...)
	for len(out) < target {
		var d Digest
		for i := range d {
			d[i] = byte(rng.Intn(256))
		}
		if seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}

// dupDigests draws n digests from a pool of the given size, so small
// pools repeat heavily.
func dupDigests(rng *rand.Rand, n, pool int) []Digest {
	ds := make([]Digest, n)
	for i := range ds {
		ds[i][0] = byte(rng.Intn(pool))
		ds[i][15] = byte(rng.Intn(2))
	}
	return ds
}

// TestSetDedupPathsAgree pins NewSet, MaskSetInto's dedup and Add against
// the map oracle on both sides of the linear-scan threshold.
func TestSetDedupPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, linearScanMax - 1, linearScanMax, linearScanMax + 1, 300, 4096} {
		for _, pool := range []int{1, 7, 256} {
			ds := dupDigests(rng, n, pool)
			want := refDedup(ds)
			s := NewSet(ds)
			if !reflect.DeepEqual(s.Digests(), append([]Digest{}, want...)) {
				t.Fatalf("n=%d pool=%d: NewSet members differ from first-occurrence order", n, pool)
			}
			var added Set
			for _, d := range ds {
				added.Add(d)
			}
			if added.Len() != len(want) {
				t.Fatalf("n=%d pool=%d: Add built %d members, want %d", n, pool, added.Len(), len(want))
			}
			for _, d := range want {
				if !s.Contains(d) || !added.Contains(d) {
					t.Fatalf("n=%d pool=%d: member missing", n, pool)
				}
			}
		}
	}
}

// TestSetIntersectsPathsAgree checks the linear and map-backed
// intersection paths against the oracle.
func TestSetIntersectsPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sizes := range [][2]int{{0, 0}, {0, 9}, {3, 20}, {20, 20}, {1, 4096}, {100, 100}, {300, 4096}} {
		for trial := 0; trial < 20; trial++ {
			a := NewSet(dupDigests(rng, sizes[0], 256))
			b := NewSet(dupDigests(rng, sizes[1], 256))
			want := false
			for _, d := range a.Digests() {
				if b.Contains(d) {
					want = true
				}
			}
			if a.Intersects(b) != want || b.Intersects(a) != want {
				t.Fatalf("sizes %v trial %d: Intersects disagrees with membership", sizes, trial)
			}
		}
	}
}

// TestPadToMatchesMapReference pins PadTo's exact padding and rng
// consumption — including the redraw on a duplicate — against the map
// reference, below and above the linear-scan threshold.
func TestPadToMatchesMapReference(t *testing.T) {
	for _, tc := range []struct{ start, target int }{{0, 0}, {0, 18}, {5, 18}, {18, 5}, {10, linearScanMax + 40}} {
		base := NewSet(dupDigests(rand.New(rand.NewSource(3)), tc.start, 256))
		// Plant the first digest the pad rng will draw, forcing a redraw.
		peek := rand.New(rand.NewSource(4))
		var first Digest
		for i := range first {
			first[i] = byte(peek.Intn(256))
		}
		base.Add(first)

		got, gotRng := NewSet(base.Digests()), rand.New(rand.NewSource(4))
		got.PadTo(tc.target, gotRng)
		wantRng := rand.New(rand.NewSource(4))
		want := refPadTo(base.Digests(), tc.target, wantRng)
		if !reflect.DeepEqual(got.Digests(), want) {
			t.Fatalf("%+v: padded members differ from the map reference", tc)
		}
		if gotRng.Int63() != wantRng.Int63() {
			t.Fatalf("%+v: PadTo consumed a different amount of randomness", tc)
		}
	}
}

// TestMaskSetIntoPadsInPlace: a set masked into a buffer sized for its
// padding target pads without reallocating, and the whole build allocates
// nothing.
func TestMaskSetIntoPadsInPlace(t *testing.T) {
	m, err := NewMasker(testKey(6))
	if err != nil {
		t.Fatal(err)
	}
	vs := []uint64{3, 9, 27, 81}
	buf := make([]Digest, 0, 18)
	rng := rand.New(rand.NewSource(5))
	s := m.MaskSetInto(buf, vs)
	s.PadTo(18, rng)
	if s.Len() != 18 || &s.ds[0] != &buf[:1][0] {
		t.Fatalf("padded set has %d members or left its buffer", s.Len())
	}
	if want := m.MaskSet(vs); !reflect.DeepEqual(s.ds[:len(vs)], want.ds) {
		t.Fatal("MaskSetInto members differ from MaskSet")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s := m.MaskSetInto(buf, vs)
		s.PadTo(18, rng)
	})
	if allocs != 0 {
		t.Errorf("MaskSetInto+PadTo allocates %.1f times, want 0", allocs)
	}
}

// TestSealerRearmAndAppend: a re-armed sealer seals exactly what a fresh
// one would, AppendSealValue matches SealValue, and SealValue allocates
// once.
func TestSealerRearmAndAppend(t *testing.T) {
	gc := testKey(8)[:16]
	fresh, err := NewSealer(gc, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	reused, err := NewSealer(gc, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	reused.SealValue(77) // advance its counter and stream
	reused.Rearm(rand.New(rand.NewSource(9)))
	for v := uint64(0); v < 4; v++ {
		want := fresh.SealValue(v)
		got := reused.AppendSealValue([]byte("prefix"), v)
		if string(got[:6]) != "prefix" || string(got[6:]) != string(want) {
			t.Fatalf("value %d: re-armed append-seal differs from a fresh sealer", v)
		}
		if len(want) != SealedValueLen {
			t.Fatalf("sealed length %d, want %d", len(want), SealedValueLen)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { fresh.SealValue(5) }); allocs != 1 {
		t.Errorf("SealValue allocates %.1f times, want 1", allocs)
	}
}

// BenchmarkNewSetWireCap rebuilds a cap-sized wire set (4096 digests, the
// transport's MaxDigestsPerSet) — all distinct, and one digest repeated —
// the intake cost a hostile submission can demand per set.
func BenchmarkNewSetWireCap(b *testing.B) {
	const capDigests = 4096
	distinct := make([]Digest, capDigests)
	for i := range distinct {
		distinct[i][0], distinct[i][1] = byte(i), byte(i>>8)
	}
	for _, tc := range []struct {
		name string
		ds   []Digest
	}{{"distinct", distinct}, {"identical", make([]Digest, capDigests)}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewSet(tc.ds)
			}
		})
	}
}
