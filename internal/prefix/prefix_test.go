package prefix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFamilyOfSevenWidthFour(t *testing.T) {
	// The paper's running example: G(7) for w=4 is
	// {0111, 011*, 01**, 0***, ****}.
	fam := Family(7, 4)
	want := []string{"0111", "011*", "01**", "0***", "****"}
	if len(fam) != len(want) {
		t.Fatalf("family size = %d, want %d", len(fam), len(want))
	}
	for i, p := range fam {
		if p.String() != want[i] {
			t.Errorf("family[%d] = %q, want %q", i, p, want[i])
		}
	}
}

func TestCoverOfPaperExample(t *testing.T) {
	// Q([6,14]) = {011*, 10**, 110*, 1110} for w=4.
	got := Cover(6, 14, 4)
	want := []string{"011*", "10**", "110*", "1110"}
	if len(got) != len(want) {
		t.Fatalf("cover = %v, want %v", got, want)
	}
	for i, p := range got {
		if p.String() != want[i] {
			t.Errorf("cover[%d] = %q, want %q", i, p, want[i])
		}
	}
}

func TestNumericalizeExamples(t *testing.T) {
	// O(110*) = 11010 = 26; the paper's example.
	p := New(0b1100, 3, 4)
	if p.String() != "110*" {
		t.Fatalf("prefix = %q, want 110*", p)
	}
	if got := p.Numericalize(); got != 0b11010 {
		t.Errorf("O(110*) = %b, want 11010", got)
	}
	// O(G(7)) and O(Q([6,14])) share exactly 01110 per the paper.
	famNums := map[uint64]struct{}{}
	for _, fp := range Family(7, 4) {
		famNums[fp.Numericalize()] = struct{}{}
	}
	var common []uint64
	for _, cp := range Cover(6, 14, 4) {
		if _, ok := famNums[cp.Numericalize()]; ok {
			common = append(common, cp.Numericalize())
		}
	}
	if len(common) != 1 || common[0] != 0b01110 {
		t.Errorf("common numericalizations = %b, want exactly [01110]", common)
	}
}

func TestMemberPaperExamples(t *testing.T) {
	if !Member(7, 6, 14, 4) {
		t.Error("Member(7, [6,14]) = false, want true")
	}
	if Member(5, 6, 14, 4) {
		t.Error("Member(5, [6,14]) = true, want false")
	}
	if Member(15, 6, 14, 4) {
		t.Error("Member(15, [6,14]) = true, want false")
	}
}

func TestFamilyIntervalsContainValue(t *testing.T) {
	const w = 10
	for x := uint64(0); x < 1<<w; x += 7 {
		for _, p := range Family(x, w) {
			if !p.Contains(x) {
				t.Fatalf("prefix %v of G(%d) does not contain %d", p, x, x)
			}
			if p.Lo() > x || p.Hi() < x {
				t.Fatalf("interval [%d,%d] of %v excludes %d", p.Lo(), p.Hi(), p, x)
			}
		}
	}
}

func TestCoverTilesIntervalExactly(t *testing.T) {
	const w = 8
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		lo := uint64(rng.Intn(1 << w))
		hi := lo + uint64(rng.Intn(int(1<<w-lo)))
		cover := Cover(lo, hi, w)
		if len(cover) > MaxCoverSize(w) {
			t.Fatalf("cover of [%d,%d] has %d prefixes, max %d", lo, hi, len(cover), MaxCoverSize(w))
		}
		// Disjoint, ordered, and tiling.
		next := lo
		for _, p := range cover {
			if p.Lo() != next {
				t.Fatalf("cover of [%d,%d]: gap or overlap at %d (prefix %v)", lo, hi, next, p)
			}
			next = p.Hi() + 1
		}
		if next != hi+1 {
			t.Fatalf("cover of [%d,%d] stops at %d", lo, hi, next-1)
		}
	}
}

func TestCoverFullDomain(t *testing.T) {
	for w := 1; w <= 16; w++ {
		cover := Cover(0, 1<<w-1, w)
		if len(cover) != 1 || cover[0].DefinedBits() != 0 {
			t.Errorf("w=%d: cover of full domain = %v, want single full wildcard", w, cover)
		}
	}
}

func TestCoverSinglePoint(t *testing.T) {
	cover := Cover(9, 9, 4)
	if len(cover) != 1 || cover[0].String() != "1001" {
		t.Errorf("cover of [9,9] = %v, want [1001]", cover)
	}
}

func TestMemberMatchesDirectComparison(t *testing.T) {
	const w = 9
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		x := uint64(rng.Intn(1 << w))
		lo := uint64(rng.Intn(1 << w))
		hi := lo + uint64(rng.Intn(int(1<<w-lo)))
		got := Member(x, lo, hi, w)
		want := lo <= x && x <= hi
		if got != want {
			t.Fatalf("Member(%d, [%d,%d]) = %v, want %v", x, lo, hi, got, want)
		}
	}
}

func TestMemberPropertyQuick(t *testing.T) {
	const w = 16
	prop := func(xv, av, bv uint16) bool {
		x, a, b := uint64(xv), uint64(av), uint64(bv)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return Member(x, lo, hi, w) == (lo <= x && x <= hi)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNumericalizationInjective(t *testing.T) {
	// Across all prefixes of width 6, numericalizations must be distinct.
	const w = 6
	seen := map[uint64]string{}
	for s := 0; s <= w; s++ {
		for v := uint64(0); v < 1<<s; v++ {
			p := Prefix{value: v, s: uint8(s), w: uint8(w)}
			n := p.Numericalize()
			if prev, dup := seen[n]; dup {
				t.Fatalf("O(%v) = O(%s) = %b", p, prev, n)
			}
			seen[n] = p.String()
		}
	}
}

func TestFamilySizeAndMaxCoverSize(t *testing.T) {
	if FamilySize(16) != 17 {
		t.Errorf("FamilySize(16) = %d, want 17", FamilySize(16))
	}
	if MaxCoverSize(1) != 1 {
		t.Errorf("MaxCoverSize(1) = %d, want 1", MaxCoverSize(1))
	}
	if MaxCoverSize(16) != 30 {
		t.Errorf("MaxCoverSize(16) = %d, want 30", MaxCoverSize(16))
	}
	// The worst case 2w-2 is achieved, e.g. [1, 2^w-2].
	w := 8
	if got := len(Cover(1, 1<<w-2, w)); got != MaxCoverSize(w) {
		t.Errorf("worst-case cover size = %d, want %d", got, MaxCoverSize(w))
	}
}

func TestWidthFor(t *testing.T) {
	cases := []struct {
		max  uint64
		want int
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}, {1023, 10}, {1024, 11},
	}
	for _, c := range cases {
		if got := WidthFor(c.max); got != c.want {
			t.Errorf("WidthFor(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

func TestPrefixStringAndBounds(t *testing.T) {
	p := New(0b0110, 3, 4) // prefix 011*
	if p.String() != "011*" {
		t.Errorf("String = %q, want 011*", p)
	}
	if p.Lo() != 6 || p.Hi() != 7 {
		t.Errorf("bounds = [%d,%d], want [6,7]", p.Lo(), p.Hi())
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("width 0", func() { New(0, 0, 0) })
	mustPanic("width too large", func() { New(0, 0, 64) })
	mustPanic("s > w", func() { New(0, 5, 4) })
	mustPanic("value overflow", func() { New(16, 2, 4) })
	mustPanic("empty interval", func() { Cover(5, 4, 4) })
	mustPanic("lo overflow", func() { Cover(16, 17, 4) })
}

func TestFamilyWidthOne(t *testing.T) {
	fam := Family(1, 1)
	if len(fam) != 2 || fam[0].String() != "1" || fam[1].String() != "*" {
		t.Errorf("G(1) width 1 = %v", fam)
	}
}

func TestCoverAtDomainTop(t *testing.T) {
	// Interval touching 2^w-1 must terminate (no wraparound loop).
	const w = 5
	cover := Cover(30, 31, w)
	if len(cover) != 1 || cover[0].Lo() != 30 || cover[0].Hi() != 31 {
		t.Errorf("cover [30,31] = %v", cover)
	}
	cover = Cover(31, 31, w)
	if len(cover) != 1 || cover[0].Lo() != 31 {
		t.Errorf("cover [31,31] = %v", cover)
	}
}

func TestNumericalizedSlice(t *testing.T) {
	ps := Family(3, 2) // 11, 1*, **
	ns := Numericalized(ps)
	want := []uint64{0b111, 0b110, 0b100}
	if len(ns) != len(want) {
		t.Fatalf("len = %d, want %d", len(ns), len(want))
	}
	for i := range ns {
		if ns[i] != want[i] {
			t.Errorf("ns[%d] = %b, want %b", i, ns[i], want[i])
		}
	}
}

// TestAppendNumericalizedMatchesSlices pins the append-style builders to
// Numericalized(Family) and Numericalized(Cover), element for element:
// exhaustively for small widths, randomly up to MaxWidth. The dst prefix
// survives and reused scratch allocates nothing.
func TestAppendNumericalizedMatchesSlices(t *testing.T) {
	equal := func(a, b []uint64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	check := func(w int, x, lo, hi uint64) {
		dst := []uint64{99}
		if got := AppendNumericalizedFamily(dst, x, w); got[0] != 99 || !equal(got[1:], Numericalized(Family(x, w))) {
			t.Fatalf("w=%d x=%d: appended family differs", w, x)
		}
		if got := AppendNumericalizedCover(dst, lo, hi, w); got[0] != 99 || !equal(got[1:], Numericalized(Cover(lo, hi, w))) {
			t.Fatalf("w=%d [%d,%d]: appended cover differs", w, lo, hi)
		}
	}
	for w := 1; w <= 6; w++ {
		top := uint64(1)<<w - 1
		for lo := uint64(0); lo <= top; lo++ {
			for hi := lo; hi <= top; hi++ {
				check(w, lo, lo, hi)
			}
		}
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 2000; trial++ {
		w := 1 + rng.Intn(MaxWidth)
		mask := uint64(1)<<w - 1
		a, b := rng.Uint64()&mask, rng.Uint64()&mask
		if a > b {
			a, b = b, a
		}
		check(w, rng.Uint64()&mask, a, b)
	}

	scratch := make([]uint64, 0, 2*MaxWidth)
	allocs := testing.AllocsPerRun(100, func() {
		scratch = AppendNumericalizedFamily(scratch[:0], 12345, 20)
		scratch = AppendNumericalizedCover(scratch[:0], 17, 900000, 20)
	})
	if allocs != 0 {
		t.Errorf("append builders allocate %.1f times into sized scratch, want 0", allocs)
	}
}
