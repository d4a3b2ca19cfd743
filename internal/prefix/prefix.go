// Package prefix implements the prefix membership verification scheme that
// underpins LPPA's privacy-preserving range queries (SafeQ-style, Chen &
// Liu, INFOCOM'11).
//
// The scheme converts the question "is x inside [lo, hi]?" into set
// intersection over short bit strings:
//
//   - the prefix family G(x) of a w-bit number x is the set of w+1 prefixes
//     obtained by successively wildcarding the trailing bits of x;
//   - the range cover Q([lo, hi]) is the minimal set of prefixes whose
//     denoted intervals exactly tile [lo, hi] (at most 2w-2 prefixes);
//   - the numericalization O(p) maps a prefix p = t1..ts*..* to the unique
//     (w+1)-bit number t1..ts 1 0..0.
//
// Then x ∈ [lo, hi]  ⇔  O(G(x)) ∩ O(Q([lo, hi])) ≠ ∅. Because the check is
// pure equality of opaque tokens, both sides can be pushed through a keyed
// hash (see package mask) and evaluated by an untrusted party.
package prefix

import (
	"fmt"
	"strings"
)

// MaxWidth is the largest supported prefix width in bits. Values are carried
// in uint64, and numericalization needs one extra bit, so widths up to 63 are
// representable.
const MaxWidth = 63

// Prefix denotes the set of w-bit numbers that share the s leading bits of
// value. The remaining w-s bits are wildcards. The zero Prefix is the full
// wildcard of width 0 and is generally not meaningful; construct prefixes
// through New, Family, or Cover.
type Prefix struct {
	value uint64 // the s defined leading bits, right-aligned (value < 1<<s)
	s     uint8  // number of defined bits
	w     uint8  // total width in bits
}

// New returns the prefix of width w whose s leading bits equal the top s bits
// of the w-bit number x. It panics if the arguments are out of range; callers
// validate widths once at protocol setup, not per prefix.
func New(x uint64, s, w int) Prefix {
	checkWidth(w)
	if s < 0 || s > w {
		panic(fmt.Sprintf("prefix: defined bits s=%d out of range [0,%d]", s, w))
	}
	checkValue(x, w)
	return Prefix{value: x >> (w - s), s: uint8(s), w: uint8(w)}
}

func checkWidth(w int) {
	if w <= 0 || w > MaxWidth {
		panic(fmt.Sprintf("prefix: width %d out of range [1,%d]", w, MaxWidth))
	}
}

func checkValue(x uint64, w int) {
	if w < 64 && x >= 1<<w {
		panic(fmt.Sprintf("prefix: value %d does not fit in %d bits", x, w))
	}
}

// Width reports the total width w of the prefix in bits.
func (p Prefix) Width() int { return int(p.w) }

// DefinedBits reports the number s of non-wildcard leading bits.
func (p Prefix) DefinedBits() int { return int(p.s) }

// Lo returns the smallest w-bit number matched by the prefix.
func (p Prefix) Lo() uint64 { return p.value << (p.w - p.s) }

// Hi returns the largest w-bit number matched by the prefix.
func (p Prefix) Hi() uint64 {
	wild := uint(p.w - p.s)
	return p.value<<wild | (1<<wild - 1)
}

// Contains reports whether the w-bit number x is matched by the prefix.
func (p Prefix) Contains(x uint64) bool {
	return x>>(p.w-p.s) == p.value
}

// Numericalize converts the prefix t1..ts*..* into the unique (w+1)-bit
// number t1..ts 1 0..0. Distinct prefixes of the same width map to distinct
// numbers, which is what makes hashed-set intersection sound.
func (p Prefix) Numericalize() uint64 {
	return (p.value<<1 | 1) << (p.w - p.s)
}

// String renders the prefix in the paper's notation, e.g. "110*" for the
// 4-bit prefix with defined bits 110.
func (p Prefix) String() string {
	var b strings.Builder
	b.Grow(int(p.w))
	for i := int(p.s) - 1; i >= 0; i-- {
		if p.value>>uint(i)&1 == 1 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	for i := 0; i < int(p.w-p.s); i++ {
		b.WriteByte('*')
	}
	return b.String()
}

// Family returns the prefix family G(x): the w+1 prefixes of the w-bit
// number x, from the fully defined prefix down to the full wildcard. Each
// element denotes an interval containing x.
func Family(x uint64, w int) []Prefix {
	checkWidth(w)
	checkValue(x, w)
	fam := make([]Prefix, 0, w+1)
	for s := w; s >= 0; s-- {
		fam = append(fam, Prefix{value: x >> (w - s), s: uint8(s), w: uint8(w)})
	}
	return fam
}

// FamilySize returns |G(x)| for width w, i.e. w+1.
func FamilySize(w int) int { return w + 1 }

// MaxCoverSize returns the worst-case |Q([lo,hi])| for width w. A minimal
// prefix cover of an interval of w-bit numbers has at most 2w-2 elements
// (Gupta & McKeown, IEEE Network 2001); for w = 1 a single prefix always
// suffices.
func MaxCoverSize(w int) int {
	if w <= 1 {
		return 1
	}
	return 2*w - 2
}

// Cover returns the minimal prefix cover Q([lo, hi]) of the interval of
// w-bit numbers [lo, hi]: the unique smallest set of prefixes whose denoted
// intervals are disjoint and tile [lo, hi] exactly. Prefixes are emitted in
// ascending interval order. It panics if lo > hi or either bound does not
// fit in w bits.
func Cover(lo, hi uint64, w int) []Prefix {
	checkWidth(w)
	checkValue(lo, w)
	checkValue(hi, w)
	if lo > hi {
		panic(fmt.Sprintf("prefix: empty interval [%d,%d]", lo, hi))
	}
	cover := make([]Prefix, 0, MaxCoverSize(w))
	for {
		wild, next, more := coverStep(lo, hi, w)
		cover = append(cover, Prefix{value: lo >> wild, s: uint8(uint(w) - wild), w: uint8(w)})
		if !more {
			return cover
		}
		lo = next
	}
}

// coverStep is one step of the greedy aligned-block decomposition (the
// CIDR split) behind Cover: the largest prefix-aligned block that starts
// at lo and does not overshoot hi has wild wildcard bits; more reports
// whether the cover continues at next.
func coverStep(lo, hi uint64, w int) (wild uint, next uint64, more bool) {
	wild = trailingZeros(lo, w) // widest block permitted by alignment
	// Shrink until the block fits inside [lo, hi].
	for wild > 0 && lo+(1<<wild)-1 > hi {
		wild--
	}
	next = lo + 1<<wild // may wrap only when the cover reached 2^w-1
	return wild, next, next <= hi && next != 0
}

// trailingZeros returns the number of trailing zero bits of x, capped at w.
// By convention the alignment of 0 is w (it begins every block size).
func trailingZeros(x uint64, w int) uint {
	if x == 0 {
		return uint(w)
	}
	var n uint
	for x&1 == 0 && n < uint(w) {
		n++
		x >>= 1
	}
	return n
}

// Member reports whether x ∈ [lo, hi] using the prefix membership predicate
// O(G(x)) ∩ O(Q([lo,hi])) ≠ ∅. It is the plaintext reference for the masked
// protocol and is property-tested against direct comparison.
func Member(x, lo, hi uint64, w int) bool {
	cover := Cover(lo, hi, w)
	covered := make(map[uint64]struct{}, len(cover))
	for _, p := range cover {
		covered[p.Numericalize()] = struct{}{}
	}
	for _, p := range Family(x, w) {
		if _, ok := covered[p.Numericalize()]; ok {
			return true
		}
	}
	return false
}

// Numericalized applies Numericalize to every prefix in ps.
func Numericalized(ps []Prefix) []uint64 {
	out := make([]uint64, len(ps))
	for i, p := range ps {
		out[i] = p.Numericalize()
	}
	return out
}

// AppendNumericalizedFamily appends O(G(x)) — Numericalized(Family(x, w)),
// in the same order — to dst and returns the extended slice. Encoders pass
// reused scratch so building a family allocates nothing.
func AppendNumericalizedFamily(dst []uint64, x uint64, w int) []uint64 {
	checkWidth(w)
	checkValue(x, w)
	for s := w; s >= 0; s-- {
		dst = append(dst, Prefix{value: x >> (w - s), s: uint8(s), w: uint8(w)}.Numericalize())
	}
	return dst
}

// AppendNumericalizedCover appends O(Q([lo, hi])) —
// Numericalized(Cover(lo, hi, w)), in the same order — to dst and returns
// the extended slice, with Cover's panics.
func AppendNumericalizedCover(dst []uint64, lo, hi uint64, w int) []uint64 {
	checkWidth(w)
	checkValue(lo, w)
	checkValue(hi, w)
	if lo > hi {
		panic(fmt.Sprintf("prefix: empty interval [%d,%d]", lo, hi))
	}
	for {
		wild, next, more := coverStep(lo, hi, w)
		dst = append(dst, Prefix{value: lo >> wild, s: uint8(uint(w) - wild), w: uint8(w)}.Numericalize())
		if !more {
			return dst
		}
		lo = next
	}
}

// WidthFor returns the smallest width w such that max fits in w bits, i.e.
// the bit length of max (minimum 1).
func WidthFor(max uint64) int {
	w := 1
	for max >= 1<<w && w < MaxWidth {
		w++
	}
	return w
}
