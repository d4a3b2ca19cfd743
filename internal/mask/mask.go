// Package mask provides the cryptographic layer of LPPA: keyed masking of
// numericalized prefixes with HMAC-SHA256, fixed-size digest sets with
// padding (so set cardinality leaks nothing), and authenticated symmetric
// sealing (AES-GCM) for the bid ciphertexts that only the TTP can open.
//
// The security property the protocol relies on is that HMAC under an
// unknown key is a pseudorandom function: the auctioneer can test equality
// of masked prefixes (and therefore evaluate prefix-membership range
// predicates) but learns nothing about the underlying values beyond the
// outcomes of those equality tests.
package mask

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"sort"
)

// DigestSize is the size of a masked prefix digest in bytes. Digests are
// truncated HMAC-SHA256 outputs; 16 bytes (128 bits) keeps collision
// probability negligible at auction scale while halving transcript size.
const DigestSize = 16

// Digest is a masked (keyed-hashed) numericalized prefix. Digest is
// comparable and therefore usable as a map key, which the auctioneer's set
// intersections depend on.
type Digest [DigestSize]byte

// String renders the digest in hex for logs and debugging.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:]) }

// Key is an HMAC key. Keys are distributed by the TTP to bidders and are
// never revealed to the auctioneer.
type Key []byte

// ErrShortKey is returned when a key is too short to be credible.
var ErrShortKey = errors.New("mask: key shorter than 16 bytes")

// MinKeyLen is the minimum accepted HMAC key length in bytes.
const MinKeyLen = 16

// Validate checks the key length.
func (k Key) Validate() error {
	if len(k) < MinKeyLen {
		return fmt.Errorf("%w (got %d bytes)", ErrShortKey, len(k))
	}
	return nil
}

// Masker computes digests of numericalized prefixes under a fixed key.
//
// Concurrency contract: a Masker keeps a resettable HMAC state and reuses
// internal encoding and digest buffers across calls, so the steady-state
// Mask path performs no heap allocation. That state makes a single Masker
// NOT safe for concurrent use: goroutines must not share one. Use Clone to
// obtain an independent Masker over the same key for each goroutine (the
// worker-pool encoders keep one per goroutine). Construction is still
// cheap — one HMAC key schedule.
type Masker struct {
	key Key
	mac hash.Hash         // resettable HMAC-SHA256 state
	buf [8]byte           // fixed-width message encoding, reused
	sum [sha256.Size]byte // full HMAC output scratch, reused
}

// NewMasker returns a Masker for the given key.
func NewMasker(key Key) (*Masker, error) {
	if err := key.Validate(); err != nil {
		return nil, err
	}
	return &Masker{key: key, mac: hmac.New(sha256.New, key)}, nil
}

// Clone returns an independent Masker over the same key, for per-goroutine
// use. Digests from a clone are identical to the original's.
func (m *Masker) Clone() *Masker {
	return &Masker{key: m.key, mac: hmac.New(sha256.New, m.key)}
}

// Mask returns H_g(v) = HMAC_g(O(v)): the digest of a numericalized prefix
// v. The message is the fixed-width big-endian encoding of v, so all masked
// prefixes have identical message length (the paper requires random padding
// digests to be indistinguishable by length).
func (m *Masker) Mask(numericalized uint64) Digest {
	m.mac.Reset()
	binary.BigEndian.PutUint64(m.buf[:], numericalized)
	m.mac.Write(m.buf[:])
	sum := m.mac.Sum(m.sum[:0])
	var d Digest
	copy(d[:], sum)
	return d
}

// MaskAll masks every numericalized prefix in vs.
func (m *Masker) MaskAll(vs []uint64) []Digest {
	out := make([]Digest, len(vs))
	for i, v := range vs {
		out[i] = m.Mask(v)
	}
	return out
}

// Set is a collection of distinct digests kept in insertion order. The
// zero value is an empty set ready to use.
//
// Members live in one flat slice, so bulk consumers (the auctioneer's
// interner, batch assemblers, wire encoders) scan them sequentially and a
// protocol set costs a single allocation. Protocol sets are small —
// families w+1, padded covers 2w−2, a couple dozen digests — and dedup,
// membership and intersection scan linearly up to linearScanMax members.
// Larger sets (a wire set may carry up to transport.MaxDigestsPerSet
// digests) dedup and intersect through a temporary map, so an untrusted
// set costs linear work, never quadratic.
type Set struct {
	ds []Digest
}

// linearScanMax is the largest set NewSet, MaskSet and PadTo deduplicate
// by linear scan (at most linearScanMax²/2 16-byte compares, cheaper than
// hashing at protocol sizes); Intersects scans linearly while the product
// of the two sizes stays within linearScanMax².
const linearScanMax = 64

// NewSet builds a Set from digests, dropping duplicates.
func NewSet(ds []Digest) Set {
	return Set{ds: dedup(append(make([]Digest, 0, len(ds)), ds...))}
}

// dedup drops repeated digests from ds in place, keeping each first
// occurrence in order, and returns the shortened slice.
func dedup(ds []Digest) []Digest {
	out := ds[:0]
	if len(ds) <= linearScanMax {
		for _, d := range ds {
			if !contains(out, d) {
				out = append(out, d)
			}
		}
		return out
	}
	seen := make(map[Digest]struct{}, len(ds))
	for _, d := range ds {
		if _, dup := seen[d]; dup {
			continue
		}
		seen[d] = struct{}{}
		out = append(out, d)
	}
	return out
}

func contains(ds []Digest, d Digest) bool {
	for _, x := range ds {
		if x == d {
			return true
		}
	}
	return false
}

// Len reports the number of distinct digests in the set.
func (s Set) Len() int { return len(s.ds) }

// Contains reports whether d is in the set, by linear scan.
func (s Set) Contains(d Digest) bool { return contains(s.ds, d) }

// Add inserts d into the set. Each Add scans the members, so large sets
// are built with NewSet, not one Add at a time.
func (s *Set) Add(d Digest) {
	if !s.Contains(d) {
		s.ds = append(s.ds, d)
	}
}

// Digests returns a copy of the members in insertion order.
func (s Set) Digests() []Digest {
	return s.AppendDigests(make([]Digest, 0, len(s.ds)))
}

// AppendDigests appends the members to dst in insertion order and returns
// the extended slice. Batch assemblers (e.g. the auctioneer's
// charge-request builder) use it to collect many sets into one flat
// allocation.
func (s Set) AppendDigests(dst []Digest) []Digest {
	return append(dst, s.ds...)
}

// SortedDigests returns the members in lexicographic byte order. Wire
// encoders use it so serialized sets are byte-stable and independent of
// how the set was built; sorting reveals nothing an unordered dump would
// not, since digests are already key-dependent pseudorandom values.
func (s Set) SortedDigests() []Digest {
	ds := s.Digests()
	SortDigests(ds)
	return ds
}

// SortDigests sorts ds in place in lexicographic byte order.
func SortDigests(ds []Digest) {
	sort.Slice(ds, func(i, j int) bool {
		return bytes.Compare(ds[i][:], ds[j][:]) < 0
	})
}

// Intersects reports whether s and other share at least one digest. This is
// the only operation the auctioneer performs on masked location and bid
// data: prefix membership verification reduces range queries to exactly
// this check.
func (s Set) Intersects(other Set) bool {
	small, large := s.ds, other.ds
	if len(small) > len(large) {
		small, large = large, small
	}
	if len(small)*len(large) <= linearScanMax*linearScanMax {
		for _, d := range small {
			if contains(large, d) {
				return true
			}
		}
		return false
	}
	seen := make(map[Digest]struct{}, len(small))
	for _, d := range small {
		seen[d] = struct{}{}
	}
	for _, d := range large {
		if _, ok := seen[d]; ok {
			return true
		}
	}
	return false
}

// PadTo grows the set to exactly target members by inserting random digests
// drawn from rng. Padding hides the true cardinality of range-prefix sets,
// which would otherwise leak bid magnitude (section IV.C of the paper: all
// range covers are padded to 2w-2 elements). Random digests collide with
// genuine HMAC outputs only with probability 2^-128 per draw, so padding
// does not perturb intersection results. Each draw takes 16 rng.Intn(256)
// bytes, and a draw that repeats a member is discarded and redrawn. PadTo
// is a no-op if the set already has at least target members; otherwise it
// grows the backing slice at most once, and not at all when the set was
// built with room for target members (MaskSetInto).
func (s *Set) PadTo(target int, rng *rand.Rand) {
	if len(s.ds) >= target {
		return
	}
	s.ds = slices.Grow(s.ds, target-len(s.ds))
	var seen map[Digest]struct{}
	if target > linearScanMax {
		seen = make(map[Digest]struct{}, target)
		for _, d := range s.ds {
			seen[d] = struct{}{}
		}
	}
	for len(s.ds) < target {
		var d Digest
		for i := range d {
			d[i] = byte(rng.Intn(256))
		}
		if seen == nil {
			if contains(s.ds, d) {
				continue
			}
		} else {
			if _, dup := seen[d]; dup {
				continue
			}
			seen[d] = struct{}{}
		}
		s.ds = append(s.ds, d)
	}
}

// MaskSet masks all numericalized prefixes in vs and collects them into a
// Set.
func (m *Masker) MaskSet(vs []uint64) Set {
	return m.MaskSetInto(make([]Digest, 0, len(vs)), vs)
}

// MaskSetInto is MaskSet writing the digests into buf's storage (buf is
// truncated first) instead of a fresh allocation. The returned set owns
// that storage: callers carve buf from a block they never touch again,
// and size its capacity for any later PadTo target so the padding
// appends in place.
func (m *Masker) MaskSetInto(buf []Digest, vs []uint64) Set {
	buf = buf[:0]
	for _, v := range vs {
		buf = append(buf, m.Mask(v))
	}
	return Set{ds: dedup(buf)}
}
