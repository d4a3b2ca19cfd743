package transport

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/round"
)

// TestChargeReplyRejected puts a lying TTP between the auctioneer and a
// real one: it forwards each charge batch and mangles the reply. Every
// mangled reply must fail the round before any verdict is tallied — a
// duplicated verdict would bill its winner twice, a short reply would
// turn winners into losers, and a verdict for another channel would
// charge an award nobody made.
func TestChargeReplyRejected(t *testing.T) {
	mangles := []struct {
		name string
		fn   func([]WireChargeResult) []WireChargeResult
	}{
		{"duplicated", func(rs []WireChargeResult) []WireChargeResult { return append(rs, rs[0]) }},
		{"short", func(rs []WireChargeResult) []WireChargeResult { return rs[:len(rs)-1] }},
		{"channel-swapped", func(rs []WireChargeResult) []WireChargeResult {
			rs[0].Channel = (rs[0].Channel + 1) % testParams().Channels
			return rs
		}},
	}
	for _, m := range mangles {
		t.Run(m.name, func(t *testing.T) {
			p := testParams()
			const n = 4
			log := quietLogger()
			ttpSrv, err := NewTTPServer(p, []byte("lying-ttp"), 3, 4, listen(t), log)
			if err != nil {
				t.Fatal(err)
			}
			defer ttpSrv.Close()
			liar := lyingTTP(t, ttpSrv.Addr().String(), m.fn)
			defer liar.Close()
			aucSrv, err := NewAuctioneerServer(p, n, liar.Addr().String(), listen(t), 3, log)
			if err != nil {
				t.Fatal(err)
			}
			defer aucSrv.Close()

			points := []geo.Point{{X: 10, Y: 10}, {X: 40, Y: 40}, {X: 5, Y: 45}, {X: 45, Y: 5}}
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					b := &BidderClient{ID: i, Params: p, Policy: core.DisguisePolicy{P0: 1}}
					_, errs[i] = b.Participate(ttpSrv.Addr().String(), aucSrv.Addr().String(),
						points[i], []uint64{20, 30, 40, 50}, rand.New(rand.NewSource(int64(i))))
				}(i)
			}
			wg.Wait()

			out, err := aucSrv.Outcome()
			if err == nil {
				t.Fatalf("round settled on a %s charge reply: %+v", m.name, out)
			}
			if !strings.Contains(err.Error(), "charge") {
				t.Errorf("round failed with %v, want a charge-reply rejection", err)
			}
			if errors.Is(err, round.ErrQuorumNotReached) {
				t.Errorf("round failed on quorum, not on the reply: %v", err)
			}
			for i, err := range errs {
				if err == nil {
					t.Errorf("bidder %d got a result from a rejected round", i)
				}
			}
		})
	}
}

// lyingTTP serves charge batches by forwarding them to the TTP at real
// and returning mangle of its verdicts.
func lyingTTP(t *testing.T, real string, mangle func([]WireChargeResult) []WireChargeResult) net.Listener {
	t.Helper()
	ln := listen(t)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				c := NewConn(conn)
				defer c.Close()
				var batch ChargeBatch
				if err := c.Expect(KindChargeBatch, &batch); err != nil {
					return
				}
				rs, err := SubmitCharges(real, batch.Requests)
				if err != nil {
					_ = c.Send(KindError, ErrorMsg{Reason: err.Error()})
					return
				}
				_ = c.Send(KindChargeReply, ChargeReply{Results: mangle(rs)})
			}()
		}
	}()
	return ln
}
