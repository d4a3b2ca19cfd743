package mask

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
)

// Sealer provides authenticated symmetric encryption (AES-128-GCM) for the
// bid values that travel through the auctioneer to the TTP. The auctioneer
// relays these ciphertexts opaquely; only the TTP holds the key gc.
type Sealer struct {
	aead cipher.AEAD
	// nonceRand supplies nonces. Nonces need uniqueness, not secrecy, so a
	// deterministic source is acceptable for reproducible simulations; the
	// production constructor uses crypto/rand via KeyRing.
	nonceRand *rand.Rand
	counter   uint64
	pt        [8]byte // plaintext scratch; a stack array would escape through the AEAD interface
}

// SealedLen is the ciphertext overhead: nonce plus GCM tag.
const (
	sealNonceSize = 12
	sealTagSize   = 16
	// SealedValueLen is the total length of a sealed uint64 value.
	SealedValueLen = sealNonceSize + 8 + sealTagSize
)

// ErrSealKey is returned for invalid sealing keys.
var ErrSealKey = errors.New("mask: sealing key must be 16, 24, or 32 bytes")

// ErrCiphertext is returned when a ciphertext fails to authenticate or has
// the wrong shape.
var ErrCiphertext = errors.New("mask: invalid ciphertext")

// NewSealer returns a Sealer using the symmetric key gc. The rng seeds the
// nonce sequence; distinct Sealers in one simulation must use distinct rngs
// or keys.
func NewSealer(gc Key, rng *rand.Rand) (*Sealer, error) {
	switch len(gc) {
	case 16, 24, 32:
	default:
		return nil, fmt.Errorf("%w (got %d bytes)", ErrSealKey, len(gc))
	}
	block, err := aes.NewCipher(gc)
	if err != nil {
		return nil, fmt.Errorf("mask: new cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("mask: new GCM: %w", err)
	}
	return &Sealer{aead: aead, nonceRand: rng}, nil
}

// SealValue encrypts a uint64 (a blinded bid). The result layout is
// nonce || ciphertext+tag. Each call uses a fresh nonce, so equal plaintexts
// produce unequal ciphertexts — but note the paper still blinds bids with
// cr before sealing, because the *decrypted* values the TTP reports back
// would otherwise let the auctioneer link equal plaintexts.
func (s *Sealer) SealValue(v uint64) []byte {
	// Sized for the whole result so Seal appends ciphertext and tag in place.
	return s.AppendSealValue(make([]byte, 0, SealedValueLen), v)
}

// AppendSealValue appends SealValue(v) — SealedValueLen bytes — to dst and
// returns the extended slice; with SealedValueLen bytes of spare capacity
// in dst it allocates nothing.
func (s *Sealer) AppendSealValue(dst []byte, v uint64) []byte {
	// 64-bit counter + 32 random bits: unique within a Sealer and across
	// the handful of Sealers in one experiment.
	var nonce [sealNonceSize]byte
	binary.BigEndian.PutUint64(nonce[:8], s.counter)
	s.counter++
	binary.BigEndian.PutUint32(nonce[8:], s.nonceRand.Uint32())
	dst = append(dst, nonce[:]...)
	binary.BigEndian.PutUint64(s.pt[:], v)
	return s.aead.Seal(dst, dst[len(dst)-sealNonceSize:], s.pt[:], nil)
}

// Rearm restarts the nonce sequence for a new owner: the counter returns
// to 0 and the random nonce bits now come from rng. A re-armed Sealer seals
// exactly what NewSealer(gc, rng) would, while keeping its AES-GCM state.
func (s *Sealer) Rearm(rng *rand.Rand) {
	s.nonceRand = rng
	s.counter = 0
}

// OpenValue decrypts and authenticates a ciphertext produced by SealValue.
func (s *Sealer) OpenValue(ct []byte) (uint64, error) {
	if len(ct) != SealedValueLen {
		return 0, fmt.Errorf("%w: length %d, want %d", ErrCiphertext, len(ct), SealedValueLen)
	}
	pt, err := s.aead.Open(nil, ct[:sealNonceSize], ct[sealNonceSize:], nil)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCiphertext, err)
	}
	return binary.BigEndian.Uint64(pt), nil
}
