package main

import (
	"testing"
)

// smallFixture is a 300-bidder population under the workloads' protocol
// agreement, small enough for the oracle to run in a test.
func smallFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	fx, err := newFixture(seed, 300, channels)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// TestComposedMatchesRoundRun pins the composition the traced run times:
// the layers called one by one, with the wire round trip in between,
// award the same transcript as round.Run on the same inputs.
func TestComposedMatchesRoundRun(t *testing.T) {
	for _, w := range workloads[:2] {
		fx := smallFixture(t, 5)
		c := &composer{fx: fx, shards: w.shards}
		for k := 0; k < 3; k++ {
			in := fx.oneshotInput(laneBids, k)
			res, err := fx.runRound(in, w.roundOptions()...)
			if err != nil {
				t.Fatal(err)
			}
			a, l, err := c.clear(in)
			if err != nil {
				t.Fatal(err)
			}
			if a.digest(k, in.ids) != awardOf(res).digest(k, in.ids) {
				t.Fatalf("%s round %d: composed award digest differs from round.Run", w.name, k)
			}
			if l.bidders != 300 || l.winners == 0 || l.frameBytes <= l.protoBytes {
				t.Fatalf("%s round %d: implausible layer counts %+v", w.name, k, l)
			}
			if w.shards > 0 && l.tiles == 0 {
				t.Fatalf("%s round %d: sharded clearing planned no tiles", w.name, k)
			}
		}
	}
}

// TestServiceReplayComposes runs a small service-churn replay: the
// ledgers match the replay's totals, the epochs rebuilt after the run
// pass the oracle gate (whose digest covers the admitted set, so the
// rebuilt sets are the service's), and the composed layers with
// auctioneer and planner reuse reproduce each epoch's award digest.
func TestServiceReplayComposes(t *testing.T) {
	w, _ := findWorkload("service-churn")
	fx := smallFixture(t, 9)
	r, err := newServiceRun(fx, w, true)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if _, err := r.playPass(nil); err != nil {
			t.Fatal(err)
		}
	}
	r.waitSealed()
	if err := r.finish(); err != nil {
		t.Fatal(err)
	}
	if len(r.problems) > 0 {
		t.Fatalf("replay problems: %v", r.problems)
	}
	if len(r.epochs) != 2*passEpochs {
		t.Fatalf("%d epochs sealed, want %d", len(r.epochs), 2*passEpochs)
	}
	ins, err := r.inputs()
	if err != nil {
		t.Fatal(err)
	}
	var cs []clearing
	c := &composer{fx: fx, shards: w.shards, reuse: true}
	for e, in := range ins {
		d := r.outs[e]
		if len(in.ids) != d.n {
			t.Fatalf("epoch %d: rebuilt %d bidders, service admitted %d", e, len(in.ids), d.n)
		}
		cs = append(cs, clearing{label: e, digest: d.digest, err: d.err})
		a, _, err := c.clear(in)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest(e, in.ids) != d.digest {
			t.Fatalf("epoch %d: composed award digest differs from the service's", e)
		}
	}
	if failed := gate(fx, cs, func(e int) input { return ins[e] }); failed != 0 {
		t.Fatalf("%d of %d service epochs failed the oracle gate", failed, len(cs))
	}
	if r.submits == 0 || len(r.intakeUs) == 0 {
		t.Fatalf("traced replay recorded no intake calls")
	}
}

// TestGateCatchesPerturbedBid shows the oracle gate is live: the same
// clearing passes it, and fails it once one winning bid is changed.
func TestGateCatchesPerturbedBid(t *testing.T) {
	fx := smallFixture(t, 13)
	w, _ := findWorkload("oneshot-sharded")
	in := fx.oneshotInput(laneBids, 0)
	res, err := fx.runRound(in, w.roundOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	c := clearing{label: in.label, digest: awardOf(res).digest(in.label, in.ids)}
	if failed := gate(fx, []clearing{c}, func(int) input { return in }); failed != 0 {
		t.Fatalf("unperturbed clearing failed the gate")
	}

	// Perturb one charged winner's bid on its channel, in a copy.
	o := res.Outcome
	i := 0
	for o.Charges[i] == 0 {
		i++
	}
	as := o.Assignments[i]
	bids := append([][]uint64(nil), in.bids...)
	bids[as.Bidder] = append([]uint64(nil), bids[as.Bidder]...)
	if b := bids[as.Bidder][as.Channel]; b == fx.params.BMax {
		bids[as.Bidder][as.Channel] = b - 1
	} else {
		bids[as.Bidder][as.Channel] = b + 1
	}
	perturbed := in
	perturbed.bids = bids
	if failed := gate(fx, []clearing{c}, func(int) input { return perturbed }); failed != 1 {
		t.Fatalf("gate passed a clearing whose oracle input has a perturbed bid")
	}
}
