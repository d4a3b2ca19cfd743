package transport

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
)

// goldenFrames returns one valid encoded frame per message kind,
// exercising every payload type a server might decode.
func goldenFrames(tb testing.TB) [][]byte {
	tb.Helper()
	p := testParams()
	ring, err := mask.DeriveKeyRing([]byte("fuzz"), p.Channels, 3, 4)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	loc, err := core.NewLocationSubmission(p, ring, geo.Point{X: 3, Y: 4})
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := core.NewBidEncoder(p, ring, nil, rng)
	if err != nil {
		tb.Fatal(err)
	}
	bid, err := enc.Encode([]uint64{1, 0, 50, 9}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	sub := NewSubmission(2, loc, bid)
	sub.Nonce = 7

	payloads := []struct {
		kind MsgKind
		body any
	}{
		{KindKeyRingRequest, struct{}{}},
		{KindKeyRingReply, RingToWire(ring)},
		{KindSubmission, sub},
		{KindSubmissionAck, struct{}{}},
		{KindResult, Result{BidderID: 2, Won: true, Channel: 1, Price: 17}},
		{KindChargeBatch, ChargeBatch{Requests: []core.ChargeRequest{
			{Bidder: 0, Channel: 1, Sealed: bid.Channels[1].Sealed, Family: bid.Channels[1].Family.Digests()},
		}}},
		{KindChargeReply, ChargeReply{Results: []WireChargeResult{{Bidder: 0, Channel: 1, Valid: true, Price: 9}}}},
		{KindError, ErrorMsg{Reason: "nope", Retryable: true}},
		{KindRetryAfter, RetryAfterMsg{RetryAfter: 250 * time.Millisecond}},
	}
	frames := make([][]byte, 0, len(payloads))
	for _, pl := range payloads {
		f, err := EncodeFrame(pl.kind, pl.body)
		if err != nil {
			tb.Fatalf("encode kind %d: %v", pl.kind, err)
		}
		frames = append(frames, f)
	}
	return frames
}

// tracedGoldenFrames returns trace-bearing variants of a few golden
// payloads, so the fuzzer also mutates frames whose envelope carries a
// TraceContext (a different gob value shape than the zero-trace frames).
func tracedGoldenFrames(tb testing.TB) [][]byte {
	tb.Helper()
	tc := TraceContext{TraceID: 0x0102030405060708, SpanID: 0x1112131415161718}
	payloads := []struct {
		kind MsgKind
		body any
	}{
		{KindKeyRingRequest, struct{}{}},
		{KindSubmissionAck, struct{}{}},
		{KindError, ErrorMsg{Reason: "traced", Retryable: false}},
	}
	frames := make([][]byte, 0, len(payloads))
	for _, pl := range payloads {
		f, err := EncodeFrameTraced(pl.kind, pl.body, tc)
		if err != nil {
			tb.Fatalf("encode traced kind %d: %v", pl.kind, err)
		}
		frames = append(frames, f)
	}
	return frames
}

// duplicateHeavyFrame returns a valid submission frame whose sets repeat
// digests: the location x family carries 3 distinct digests across 100
// entries (past mask.Set's linear-scan threshold, so it dedups through the
// map path), each channel range 2 distinct digests across 40 entries (the
// linear path). It seeds the fuzzer with the shape a hostile peer uses to
// probe set rebuilding.
func duplicateHeavyFrame(tb testing.TB) []byte {
	tb.Helper()
	repeat := func(n, distinct int) DigestSet {
		ds := make(DigestSet, n)
		for i := range ds {
			ds[i][0] = byte(1 + i%distinct)
		}
		return ds
	}
	sub := Submission{BidderID: 1, XFamily: repeat(100, 3), YFamily: repeat(8, 8),
		XRange: repeat(8, 1), YRange: repeat(8, 8), Channels: make([]WireChannelBid, testParams().Channels)}
	for r := range sub.Channels {
		sub.Channels[r] = WireChannelBid{Family: repeat(12, 12), Range: repeat(40, 2), Sealed: make([]byte, 36)}
	}
	f, err := EncodeFrame(KindSubmission, sub)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// FuzzDecodeFrame hammers the frame decoder — the exact bytes an attacker
// controls — with mutations of every golden frame. The decoder must never
// panic, and every accepted envelope must decode (or cleanly reject) as
// the payload type its kind dictates.
func FuzzDecodeFrame(f *testing.F) {
	for _, frame := range goldenFrames(f) {
		f.Add(frame)
	}
	for _, frame := range tracedGoldenFrames(f) {
		f.Add(frame)
	}
	f.Add(duplicateHeavyFrame(f))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		env, dec, err := DecodeFrame(data)
		if err != nil {
			return
		}
		// Accepted envelope: drain the payload as the kind's real type; a
		// decode error is fine, a panic or hang is the bug.
		switch env.Kind {
		case KindKeyRingRequest, KindSubmissionAck:
			var v struct{}
			_ = dec.Decode(&v)
		case KindKeyRingReply:
			var v KeyRingReply
			_ = dec.Decode(&v)
		case KindSubmission:
			var v Submission
			if dec.Decode(&v) == nil && v.Validate(testParams()) == nil {
				// An accepted submission must rebuild; dedup never grows a set.
				loc, bid := v.Parts()
				if loc.XFamily.Len() > len(v.XFamily) || bid.Channels[0].Range.Len() > len(v.Channels[0].Range) {
					t.Fatal("rebuilt set larger than its wire form")
				}
			}
		case KindResult:
			var v Result
			_ = dec.Decode(&v)
		case KindChargeBatch:
			var v ChargeBatch
			if dec.Decode(&v) == nil {
				_ = v.Validate()
			}
		case KindChargeReply:
			var v ChargeReply
			_ = dec.Decode(&v)
		case KindError:
			var v ErrorMsg
			_ = dec.Decode(&v)
		case KindRetryAfter:
			var v RetryAfterMsg
			_ = dec.Decode(&v)
		default:
			t.Fatalf("DecodeFrame accepted unknown kind %d", env.Kind)
		}
	})
}

// TestGoldenFramesRoundTrip keeps the fuzz corpus honest: every golden
// frame decodes back to its own kind.
func TestGoldenFramesRoundTrip(t *testing.T) {
	kinds := []MsgKind{KindKeyRingRequest, KindKeyRingReply, KindSubmission, KindSubmissionAck,
		KindResult, KindChargeBatch, KindChargeReply, KindError, KindRetryAfter}
	frames := goldenFrames(t)
	if len(frames) != len(kinds) {
		t.Fatalf("%d golden frames, %d kinds", len(frames), len(kinds))
	}
	for i, frame := range frames {
		env, dec, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if env.Kind != kinds[i] {
			t.Errorf("frame %d decoded kind %d, want %d", i, env.Kind, kinds[i])
		}
		if dec == nil {
			t.Fatalf("frame %d: nil payload decoder", i)
		}
	}
}

// TestDuplicateHeavyFrameDedups keeps the duplicate-heavy seed honest: it
// validates, and rebuilding drops every repeat on both dedup paths.
func TestDuplicateHeavyFrameDedups(t *testing.T) {
	_, dec, err := DecodeFrame(duplicateHeavyFrame(t))
	if err != nil {
		t.Fatal(err)
	}
	var s Submission
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(testParams()); err != nil {
		t.Fatal(err)
	}
	loc, bid := s.Parts()
	if loc.XFamily.Len() != 3 || loc.XRange.Len() != 1 || bid.Channels[0].Range.Len() != 2 {
		t.Errorf("rebuilt sets have %d/%d/%d members, want 3/1/2",
			loc.XFamily.Len(), loc.XRange.Len(), bid.Channels[0].Range.Len())
	}
}

// TestTracedGoldenFramesRoundTrip keeps the traced corpus honest: every
// trace-bearing frame decodes with its trace context intact.
func TestTracedGoldenFramesRoundTrip(t *testing.T) {
	want := TraceContext{TraceID: 0x0102030405060708, SpanID: 0x1112131415161718}
	for i, frame := range tracedGoldenFrames(t) {
		env, dec, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("traced frame %d: %v", i, err)
		}
		if env.Trace != want {
			t.Errorf("traced frame %d: trace = %+v, want %+v", i, env.Trace, want)
		}
		if dec == nil {
			t.Fatalf("traced frame %d: nil payload decoder", i)
		}
	}
}

// TestDecodeFrameRejectsLengthMismatch pins the header validation: a
// length prefix that disagrees with the actual payload size is rejected.
func TestDecodeFrameRejectsLengthMismatch(t *testing.T) {
	frame := goldenFrames(t)[0]
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame))) // lie: off by the header
	if _, _, err := DecodeFrame(frame); err == nil {
		t.Fatal("length-mismatched frame accepted")
	}
	if _, _, err := DecodeFrame([]byte{1, 2}); err == nil {
		t.Fatal("sub-header frame accepted")
	}
}
