package mask

import (
	"encoding/binary"
	"sort"
)

// This file is the auctioneer-side fast path for masked set operations.
// Bidders submit map-backed Sets (the wire encoding, package doc); the
// auctioneer interns every digest it receives into a dense uint32 ID
// through a Dict and works on sorted-slice IntSets from then on. Nothing
// here touches a single protocol byte: interning is a private view of the
// same digests, and every IntSet operation is defined to agree exactly
// with its Set counterpart (pinned by the property tests).

// Dict interns 16-byte digests into dense uint32 IDs. Two digests map to
// the same ID iff they are equal, so ID equality is digest equality and
// set operations can run on 4-byte keys instead of 16-byte ones.
//
// Lifetime: one Dict serves one auction's ingest (one key epoch). Digests
// from different HMAC keys never collide meaningfully, so sharing a Dict
// across channels is sound but keeps it needlessly large; the auctioneer
// uses one Dict per bid column and one for all location sets.
//
// A Dict is not safe for concurrent interning. Interning happens once at
// ingest on one goroutine; the IntSets it produces are immutable and safe
// to share across any number of readers.
//
// Internally the Dict is an open-addressing table that uses the digest's
// own leading 8 bytes as the hash: digests are HMAC outputs, i.e. already
// uniformly distributed, so re-hashing 16-byte keys (what a Go map does
// per operation) is pure waste. Equality is still checked on the full
// digest, so interning is exact — truncation only steers probing.
type Dict struct {
	keys  []Digest // slot → digest, valid where vals[slot] != 0
	vals  []uint32 // slot → ID+1; 0 marks an empty slot
	probe uint64   // len(keys)−1, for masking hashes (len is a power of 2)
	n     int      // distinct digests interned
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return NewDictCap(0) }

// NewDictCap returns an empty dictionary pre-sized for about n digests,
// sparing the incremental growth when the ingest volume is known
// (bidders × set sizes).
func NewDictCap(n int) *Dict {
	cap := uint64(16)
	for cap*3 < uint64(n)*4 { // keep load factor under 3/4
		cap <<= 1
	}
	return &Dict{keys: make([]Digest, cap), vals: make([]uint32, cap), probe: cap - 1}
}

// Len reports the number of distinct digests interned so far.
func (d *Dict) Len() int { return d.n }

func (d *Dict) slot(dg Digest) uint64 { return binary.LittleEndian.Uint64(dg[:8]) & d.probe }

// Intern returns the ID of dg, assigning the next dense ID on first sight.
func (d *Dict) Intern(dg Digest) uint32 {
	for s := d.slot(dg); ; s = (s + 1) & d.probe {
		switch {
		case d.vals[s] == 0:
			d.n++
			d.keys[s] = dg
			d.vals[s] = uint32(d.n) // ID n−1, stored +1
			if uint64(d.n)*4 > len64(d.keys)*3 {
				d.grow()
			}
			return uint32(d.n - 1)
		case d.keys[s] == dg:
			return d.vals[s] - 1
		}
	}
}

// Lookup returns the ID of dg if it has been interned. A digest never
// interned is in no interned set, so callers treat !ok as "not a member".
func (d *Dict) Lookup(dg Digest) (uint32, bool) {
	for s := d.slot(dg); ; s = (s + 1) & d.probe {
		switch {
		case d.vals[s] == 0:
			return 0, false
		case d.keys[s] == dg:
			return d.vals[s] - 1, true
		}
	}
}

func len64(ds []Digest) uint64 { return uint64(len(ds)) }

// grow doubles the table and reinserts every occupied slot (IDs are
// preserved; only slots move).
func (d *Dict) grow() {
	old := *d
	cap := uint64(len(old.keys)) * 2
	d.keys = make([]Digest, cap)
	d.vals = make([]uint32, cap)
	d.probe = cap - 1
	for s, v := range old.vals {
		if v == 0 {
			continue
		}
		t := d.slot(old.keys[s])
		for d.vals[t] != 0 {
			t = (t + 1) & d.probe
		}
		d.keys[t] = old.keys[s]
		d.vals[t] = v
	}
}

// IntSet is an interned digest set: the IDs of its members in ascending
// order plus a 64-bit Bloom signature over them. It is immutable after
// construction and safe for concurrent reads. The zero value is the empty
// set.
type IntSet struct {
	ids []uint32 // sorted ascending, no duplicates
	sig uint64   // one bit per member, sigBit(id)
}

// InternSet interns every member of s and returns its IntSet. Members of
// the same Dict's IntSets are mutually comparable; never mix Dicts.
func (d *Dict) InternSet(s Set) IntSet {
	out := IntSet{ids: make([]uint32, 0, len(s.ds))}
	for _, dg := range s.ds {
		out.ids = append(out.ids, d.Intern(dg))
	}
	sortIDs(out.ids)
	for _, id := range out.ids {
		out.sig |= sigBit(id)
	}
	return out
}

// sortIDs sorts ascending. Protocol sets are small (families w+1, covers
// 2w−2 — a couple dozen IDs), where insertion sort beats the reflective
// sort.Slice by an order of magnitude and allocates nothing; larger inputs
// fall back to the stdlib.
func sortIDs(ids []uint32) {
	if len(ids) > 48 {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return
	}
	for i := 1; i < len(ids); i++ {
		v := ids[i]
		j := i - 1
		for j >= 0 && ids[j] > v {
			ids[j+1] = ids[j]
			j--
		}
		ids[j+1] = v
	}
}

// sigBit maps an ID to one of 64 signature bits through a splitmix64-style
// finalizer, so dense IDs spread uniformly. A shared member forces a shared
// bit in both signatures — that implication is the whole soundness argument
// for the quick reject in Intersects.
func sigBit(id uint32) uint64 {
	x := (uint64(id) + 1) * 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return 1 << (x >> 58)
}

// Len reports the number of members.
func (s IntSet) Len() int { return len(s.ids) }

// AppendIDs appends the set's interned member IDs (ascending) to dst and
// returns the extended slice. IDs are canonical within one Dict — two of
// its IntSets are equal as sets iff their ID slices are equal — so the
// appended run works as a grouping key for same-digest-set detection.
func (s IntSet) AppendIDs(dst []uint32) []uint32 { return append(dst, s.ids...) }

// Contains reports whether id is a member.
func (s IntSet) Contains(id uint32) bool {
	if s.sig&sigBit(id) == 0 {
		return false
	}
	lo, hi := 0, len(s.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s.ids) && s.ids[lo] == id
}

// gallopRatio is the size skew beyond which Intersects abandons the linear
// merge and gallops the small set through the large one: exponential probe
// plus binary search costs O(small · log large), which wins once
// large/small exceeds roughly the log factor.
const gallopRatio = 8

// Intersects reports whether s and other share at least one member —
// exactly Set.Intersects on the underlying digests, provided both sets
// came from the same Dict.
//
// Fast paths, in order: a Bloom quick reject (disjoint signatures soundly
// prove empty intersection — a shared member would force a shared bit, so
// only non-empty intersections and false positives survive the AND, and
// false positives merely fall through to the exact merge below); a range
// reject on the sorted bounds; then a cache-friendly linear merge, or a
// galloping search when one set dwarfs the other. No path allocates.
func (s IntSet) Intersects(other IntSet) bool {
	if s.sig&other.sig == 0 {
		return false
	}
	a, b := s.ids, other.ids
	if len(a) > len(b) {
		a, b = b, a
	}
	// len(a) > 0 here: an empty set has sig 0 and was rejected above.
	if a[len(a)-1] < b[0] || b[len(b)-1] < a[0] {
		return false
	}
	if len(b) >= gallopRatio*len(a) {
		lo := 0
		for _, v := range a {
			lo = gallop(b, lo, v)
			if lo == len(b) {
				return false
			}
			if b[lo] == v {
				return true
			}
		}
		return false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ai, bj := a[i], b[j]
		if ai == bj {
			return true
		}
		if ai < bj {
			i++
		} else {
			j++
		}
	}
	return false
}

// IntersectStats tallies counted masked-set intersections: how many were
// evaluated and how many the Bloom signature pre-check decided alone.
// The auctioneer's observed paths (core.Auctioneer.SetObserver) aggregate
// these into an obs.Registry; the uncounted Intersects stays the hot path
// so disabled observability costs nothing.
type IntersectStats struct {
	Calls        uint64
	BloomRejects uint64
}

// IntersectsCounted is Intersects, additionally tallying the call — and,
// when the signature AND alone proves disjointness, the quick reject —
// into st.
func (s IntSet) IntersectsCounted(other IntSet, st *IntersectStats) bool {
	st.Calls++
	if s.sig&other.sig == 0 {
		st.BloomRejects++
		return false
	}
	return s.Intersects(other)
}

// gallop returns the smallest index ≥ lo with b[index] ≥ v (len(b) if
// none): exponential probing from lo narrows a window that a binary search
// then resolves, so successive calls with ascending v scan b in amortized
// O(log gap) instead of O(log len).
func gallop(b []uint32, lo int, v uint32) int {
	if lo >= len(b) || b[lo] >= v {
		return lo
	}
	step := 1
	hi := lo + 1
	for hi < len(b) && b[hi] < v {
		lo = hi
		step <<= 1
		hi += step
	}
	if hi > len(b) {
		hi = len(b)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
