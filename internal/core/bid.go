package core

import (
	"fmt"
	"math/rand"

	"lppa/internal/mask"
	"lppa/internal/prefix"
)

// ChannelBid is one bidder's masked bid on one channel.
type ChannelBid struct {
	// Family is H_gb_r(G(scaled)), the masked prefix family of the
	// blinded bid value — for a disguised zero, of the disguise value.
	Family mask.Set
	// Range is H_gb_r(Q([scaled, scaledMax])), padded to 2w−2 digests.
	Range mask.Set
	// Sealed is the gc-encryption of the *true* blinded value (the paper
	// keeps the TTP ciphertext unaltered when disguising), relayed
	// opaquely to the TTP at charging time.
	Sealed []byte
}

// BidSubmission is a bidder's full masked bid vector.
type BidSubmission struct {
	Channels []ChannelBid
}

// encodeOptions selects between the basic scheme (section IV.B: shared
// key, no blinding, no disguise, no padding) and the advanced scheme
// (section IV.C). The basic scheme exists for tests, the ablation
// benchmarks, and as documentation of why the advanced scheme is needed.
type encodeOptions struct {
	advanced bool
	disguise *DisguiseSampler // nil disables disguising even in advanced mode
}

// BidEncoder turns plaintext bid vectors into submissions. An encoder
// serves one bidder at a time and is not safe for concurrent use. Rearm
// hands it to the next bidder, so one encoder per goroutine can encode a
// whole population while keeping its keyed HMAC states, AES-GCM and
// prefix scratch.
type BidEncoder struct {
	params    Params
	ring      *mask.KeyRing
	sealer    *mask.Sealer
	maskers   []*mask.Masker // per channel (advanced) or a single shared entry (basic)
	opts      encodeOptions
	w         int      // prefix width of the encoded-value domain
	domainMax uint64   // top of the encoded-value domain
	scratch   []uint64 // numericalized prefixes of the set being masked
}

// NewBidEncoder returns an advanced-scheme encoder. disguise may be nil to
// submit honest zeros (the paper's p0 = 1 corner).
func NewBidEncoder(params Params, ring *mask.KeyRing, disguise *DisguiseSampler, rng *rand.Rand) (*BidEncoder, error) {
	return newBidEncoder(params, ring, encodeOptions{advanced: true, disguise: disguise}, rng)
}

// NewBasicBidEncoder returns a basic-scheme encoder: every channel shares
// gb_0, bids are neither blinded nor disguised, and range sets are not
// padded. Its leaks are demonstrated in the package tests and ablation
// benchmarks.
func NewBasicBidEncoder(params Params, ring *mask.KeyRing, rng *rand.Rand) (*BidEncoder, error) {
	return newBidEncoder(params, ring, encodeOptions{}, rng)
}

func newBidEncoder(params Params, ring *mask.KeyRing, opts encodeOptions, rng *rand.Rand) (*BidEncoder, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if ring.Channels() < params.Channels {
		return nil, fmt.Errorf("core: key ring has %d channel keys, need %d", ring.Channels(), params.Channels)
	}
	sealer, err := mask.NewSealer(ring.GC, rng)
	if err != nil {
		return nil, fmt.Errorf("core: sealer: %w", err)
	}
	enc := &BidEncoder{params: params, ring: ring, sealer: sealer, opts: opts}
	enc.domainMax = params.BMax
	if opts.advanced {
		enc.domainMax = params.ScaledMax(ring)
	}
	enc.w = prefix.WidthFor(enc.domainMax)
	if opts.advanced {
		enc.maskers = make([]*mask.Masker, params.Channels)
		for r := range enc.maskers {
			m, err := mask.NewMasker(ring.GB[r])
			if err != nil {
				return nil, fmt.Errorf("core: masker for channel %d: %w", r, err)
			}
			enc.maskers[r] = m
		}
	} else {
		m, err := mask.NewMasker(ring.GB[0])
		if err != nil {
			return nil, fmt.Errorf("core: shared masker: %w", err)
		}
		enc.maskers = []*mask.Masker{m}
	}
	return enc, nil
}

// Rearm hands the encoder to the next bidder: its disguise sampler (nil
// submits honest zeros; basic-scheme encoders never disguise) and the rng
// that now seeds sealing nonces, with the sealer's nonce counter back at
// 0. The re-armed encoder encodes exactly what a fresh NewBidEncoder(params,
// ring, disguise, rng) would.
func (e *BidEncoder) Rearm(disguise *DisguiseSampler, rng *rand.Rand) {
	if e.opts.advanced {
		e.opts.disguise = disguise
	}
	e.sealer.Rearm(rng)
}

func (e *BidEncoder) maskerFor(r int) *mask.Masker {
	if e.opts.advanced {
		return e.maskers[r]
	}
	return e.maskers[0]
}

// blind maps a displayed value into its blinded slot:
// cr·v + uniform[0, cr−1].
func (e *BidEncoder) blind(v uint64, rng *rand.Rand) uint64 {
	if e.ring.CR == 1 {
		return v
	}
	return e.ring.CR*v + uint64(rng.Int63n(int64(e.ring.CR)))
}

// Encode converts a plaintext bid vector (one entry per channel, zeros for
// unavailable channels) into a masked submission. The submission's digest
// sets share one allocation, each with room for its padded size, and its
// ciphertexts share another.
func (e *BidEncoder) Encode(bids []uint64, rng *rand.Rand) (*BidSubmission, error) {
	if len(bids) != e.params.Channels {
		return nil, fmt.Errorf("core: %d bids for %d channels", len(bids), e.params.Channels)
	}
	famLen, rangeLen := prefix.FamilySize(e.w), prefix.MaxCoverSize(e.w)
	digests := make([]mask.Digest, len(bids)*(famLen+rangeLen))
	sealed := make([]byte, len(bids)*mask.SealedValueLen)
	sub := &BidSubmission{Channels: make([]ChannelBid, len(bids))}
	for r, b := range bids {
		if b > e.params.BMax {
			return nil, fmt.Errorf("core: bid %d on channel %d exceeds bmax %d", b, r, e.params.BMax)
		}
		fam, rset := digests[:0:famLen], digests[famLen:famLen:famLen+rangeLen]
		digests = digests[famLen+rangeLen:]
		sub.Channels[r] = e.encodeOne(r, b, fam, rset, sealed[:0:mask.SealedValueLen], rng)
		sealed = sealed[mask.SealedValueLen:]
	}
	return sub, nil
}

// maskValue masks, under channel r's key, the prefix family of v into
// famBuf and the prefix cover of [v, domainMax] into rangeBuf.
func (e *BidEncoder) maskValue(r int, v uint64, famBuf, rangeBuf []mask.Digest) (fam, rset mask.Set) {
	m := e.maskerFor(r)
	e.scratch = prefix.AppendNumericalizedFamily(e.scratch[:0], v, e.w)
	fam = m.MaskSetInto(famBuf, e.scratch)
	e.scratch = prefix.AppendNumericalizedCover(e.scratch[:0], v, e.domainMax, e.w)
	return fam, m.MaskSetInto(rangeBuf, e.scratch)
}

// encodeOne encodes channel r's bid into the caller's storage: famBuf and
// rangeBuf for the digest sets, sealBuf for the ciphertext.
func (e *BidEncoder) encodeOne(r int, b uint64, famBuf, rangeBuf []mask.Digest, sealBuf []byte, rng *rand.Rand) ChannelBid {
	if !e.opts.advanced {
		// Basic scheme: encode the raw value directly.
		fam, rset := e.maskValue(r, b, famBuf, rangeBuf)
		return ChannelBid{Family: fam, Range: rset, Sealed: e.sealer.AppendSealValue(sealBuf, b)}
	}

	// Advanced scheme (section IV.C steps i–iii).
	rd := e.ring.RD
	var displayed, trueVal uint64
	switch {
	case b > 0:
		displayed = b + rd
		trueVal = displayed
	default:
		// True value: zero maps uniformly into [0, rd].
		trueVal = uint64(rng.Int63n(int64(rd + 1)))
		displayed = trueVal
		if e.opts.disguise != nil {
			if t, ok := e.opts.disguise.Sample(rng); ok {
				displayed = t + rd // rank like a genuine bid of t
			}
		}
	}

	scaledTrue := e.blind(trueVal, rng)
	scaledShown := scaledTrue
	if displayed != trueVal {
		scaledShown = e.blind(displayed, rng)
	}

	fam, rset := e.maskValue(r, scaledShown, famBuf, rangeBuf)
	rset.PadTo(prefix.MaxCoverSize(e.w), rng)
	return ChannelBid{Family: fam, Range: rset, Sealed: e.sealer.AppendSealValue(sealBuf, scaledTrue)}
}

// CompareGE is the auctioneer's only primitive on masked bids: it reports
// whether bid a is at least bid b on the same channel, via
// H(G(a)) ∩ H(Q([b, max])) ≠ ∅. Both bids must come from the same channel
// (and hence the same key); cross-channel comparisons are meaningless by
// construction and return garbage — that is the point of per-channel keys.
func CompareGE(a, b *ChannelBid) bool {
	return a.Family.Intersects(b.Range)
}
