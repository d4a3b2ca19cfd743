package epoch

import (
	"math/rand"
	"sync"
	"testing"

	"lppa/internal/obs"
)

// TestAccountantExactUnderConcurrentFlush is the satellite exactness
// test: many goroutines add deltas while another hammers Flush, and the
// persisted totals still equal the exact per-key sums.
func TestAccountantExactUnderConcurrentFlush(t *testing.T) {
	store := NewMemStore()
	acct, err := NewAccountant("billing", store, 64, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	const workers, opsPer, keys = 8, 2000, 37
	want := make([]uint64, keys)
	var wantMu sync.Mutex

	var wg sync.WaitGroup
	stopFlush := make(chan struct{})
	flushDone := make(chan struct{})
	go func() { // concurrent flusher racing every Add
		defer close(flushDone)
		for {
			select {
			case <-stopFlush:
				return
			default:
				if err := acct.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			local := make([]uint64, keys)
			for i := 0; i < opsPer; i++ {
				k := rng.Intn(keys)
				d := uint64(rng.Intn(9)) // zero deltas allowed: must be no-ops
				if err := acct.Add(k, d); err != nil {
					t.Error(err)
					return
				}
				local[k] += d
			}
			wantMu.Lock()
			for k, v := range local {
				want[k] += v
			}
			wantMu.Unlock()
		}(w)
	}
	wg.Wait()
	close(stopFlush)
	<-flushDone
	if err := acct.Flush(); err != nil {
		t.Fatal(err)
	}
	if p := acct.Pending(); p != 0 {
		t.Fatalf("%d keys still pending after final Flush", p)
	}
	for k := 0; k < keys; k++ {
		if got := store.Total(k); got != want[k] {
			t.Fatalf("key %d: persisted %d, exact sum %d", k, got, want[k])
		}
	}
}

// TestBatchedAccountingWriteReduction is the acceptance-criteria
// assertion: at N=10000 accounting ops the thresholded accountant issues
// at least 10× fewer simulated datastore writes (and calls) than the
// per-op baseline, with bit-exact totals. BenchmarkAccounting reports
// the same ratio (recorded in the BENCH_PR8.json snapshot, which lives in
// git history at 4bd4e05).
func TestBatchedAccountingWriteReduction(t *testing.T) {
	const ops, bidders = 10000, 400
	rng := rand.New(rand.NewSource(9))

	perOp := NewMemStore()
	batched := NewMemStore()
	acct, err := NewAccountant("billing", batched, 2000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ops; i++ {
		k := rng.Intn(bidders)
		d := uint64(rng.Intn(5)) + 1
		if err := perOp.ApplyBatch(map[int]uint64{k: d}); err != nil {
			t.Fatal(err)
		}
		if err := acct.Add(k, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := acct.Flush(); err != nil { // epoch close
		t.Fatal(err)
	}

	if perOp.Writes() != ops || perOp.Calls() != ops {
		t.Fatalf("baseline accounting: %d writes %d calls, want %d each", perOp.Writes(), perOp.Calls(), ops)
	}
	if w := batched.Writes(); w*10 > perOp.Writes() {
		t.Fatalf("batched writes %d, need ≥10× under baseline %d", w, perOp.Writes())
	}
	if c := batched.Calls(); c*10 > perOp.Calls() {
		t.Fatalf("batched calls %d, need ≥10× under baseline %d", c, perOp.Calls())
	}
	bt, pt := batched.Totals(), perOp.Totals()
	if len(bt) != len(pt) {
		t.Fatalf("batched persisted %d keys, baseline %d", len(bt), len(pt))
	}
	for k, v := range pt {
		if bt[k] != v {
			t.Fatalf("key %d: batched total %d, baseline %d", k, bt[k], v)
		}
	}
}

// TestAccountantThresholdZero pins the pure epoch-close shape: no write
// reaches the store until Flush.
func TestAccountantThresholdZero(t *testing.T) {
	store := NewMemStore()
	acct, err := NewAccountant("quota", store, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := acct.Add(i%17, 3); err != nil {
			t.Fatal(err)
		}
	}
	if store.Calls() != 0 {
		t.Fatalf("threshold 0 flushed mid-epoch: %d calls", store.Calls())
	}
	if err := acct.Flush(); err != nil {
		t.Fatal(err)
	}
	if store.Calls() == 0 || store.Total(0) == 0 {
		t.Fatal("epoch-close flush did not persist")
	}
	sum := uint64(0)
	for _, v := range store.Totals() {
		sum += v
	}
	if sum != 1500 {
		t.Fatalf("persisted sum %d, want 1500", sum)
	}
}

// TestAccountantNilStore rejects construction without a backend.
func TestAccountantNilStore(t *testing.T) {
	if _, err := NewAccountant("billing", nil, 10, nil); err == nil {
		t.Fatal("nil store accepted")
	}
}
