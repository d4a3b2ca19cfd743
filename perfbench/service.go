package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"lppa/internal/cli"
	"lppa/internal/epoch"
	"lppa/internal/geo"
	"lppa/internal/sim"
)

// The service-churn replay: each pass plays a fresh seeded Poisson
// schedule of the whole population (20 % resubmit, 5 % depart churn)
// over passEpochs logical seconds, sealing once per logical second. The
// global token bucket is the one the deployed CLIs build from -rate-limit
// (burst one second of budget). Arrivals come faster than its rate, so
// once its burst is spent it sheds a share of them and admits about a
// third of the population per epoch.
const (
	passEpochs   = 3
	epochSeconds = 1.0
	admitRate    = 1000 // -rate-limit: submissions per logical second
)

// timingStore is the ledger's datastore seen from outside: it wraps
// epoch.MemStore, times every ApplyBatch, and keeps its own tally of the
// totals so the run can check the wrapped store against it.
type timingStore struct {
	mem *epoch.MemStore

	mu     sync.Mutex
	totals map[int]uint64
	calls  uint64
	writes uint64
	busy   time.Duration
}

func newTimingStore() *timingStore {
	return &timingStore{mem: epoch.NewMemStore(), totals: make(map[int]uint64)}
}

// ApplyBatch implements epoch.Store.
func (s *timingStore) ApplyBatch(deltas map[int]uint64) error {
	t := time.Now()
	err := s.mem.ApplyBatch(deltas)
	d := time.Since(t)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy += d
	s.calls++
	for k, v := range deltas {
		s.totals[k] += v
		s.writes++
	}
	return err
}

// stats reports calls, writes and time spent in the wrapped store.
func (s *timingStore) stats() (calls, writes uint64, busy time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls, s.writes, s.busy
}

// check reports whether the wrapped store agrees with the adapter's
// tally and with want, the totals the run expects.
func (s *timingStore) check(name string, want map[int]uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if got := s.mem.Totals(); !reflect.DeepEqual(got, s.totals) {
		return fmt.Errorf("%s ledger: MemStore totals differ from the adapter's tally", name)
	}
	if s.mem.Calls() != s.calls || s.mem.Writes() != s.writes {
		return fmt.Errorf("%s ledger: MemStore counted %d calls/%d writes, adapter %d/%d",
			name, s.mem.Calls(), s.mem.Writes(), s.calls, s.writes)
	}
	if !reflect.DeepEqual(s.totals, want) {
		return fmt.Errorf("%s ledger: persisted totals differ from the replay's expected totals", name)
	}
	return nil
}

// replay walks the service-churn arrival schedule pass by pass and
// mirrors the service's intake: a bidder's latest admitted submission
// wins and a departure withdraws it. The timed run drives the service
// from it. After the run, the gate walks the same passes again, admitting
// what the service admitted, to rebuild every epoch's admitted set rather
// than keep those sets through the timed region.
type replay struct {
	fx      *fixture
	svcSeed int64
	passes  int // passes walked so far
	epochs  int // epochs sealed so far: the next epoch's index
}

// intakeHooks connect a replay to the service, or to the record of what
// the service admitted.
type intakeHooks struct {
	// submit offers one arrival at logical time at and reports whether it
	// was admitted.
	submit func(id int, bids []uint64, at float64) (bool, error)
	// withdraw takes a departing bidder out; had reports whether the
	// mirror held a submission of it.
	withdraw func(id int, had bool) error
	// seal closes epoch e over the mirror's pending submissions, of which
	// superseded replaced an earlier one; stop ends the pass after it.
	seal func(e int, pending map[int][]uint64, superseded int) (stop bool, err error)
}

// pass walks the next schedule pass. An epoch whose intake is empty at
// its edge is not sealed, as in the service.
func (rp *replay) pass(h intakeHooks) (stopped bool, err error) {
	seed, n := rp.fx.seed, len(rp.fx.points)
	sched, err := sim.BuildSchedule(sim.ArrivalConfig{
		Process: "poisson", ResubmitFrac: 0.2, DepartFrac: 0.05,
		Horizon: passEpochs * epochSeconds,
	}, n, rand.New(rand.NewSource(stream(seed, laneSchedule, rp.passes))))
	if err != nil {
		return false, err
	}
	bidRng := rand.New(rand.NewSource(stream(seed, laneIntakeBids, rp.passes)))
	base := float64(rp.passes) * passEpochs * epochSeconds
	rp.passes++
	pending := make(map[int][]uint64)
	superseded, next := 0, 0
	for e := 1; e <= passEpochs; e++ {
		edge := float64(e) * epochSeconds
		for ; next < len(sched) && sched[next].At < edge; next++ {
			ev := sched[next]
			if ev.Kind == sim.EventDepart {
				_, had := pending[ev.Bidder]
				if err := h.withdraw(ev.Bidder, had); err != nil {
					return false, err
				}
				delete(pending, ev.Bidder)
				continue
			}
			bids := bidsFor(bidRng, rp.fx.params.Channels, rp.fx.params.BMax)
			ok, err := h.submit(ev.Bidder, bids, base+ev.At)
			if err != nil {
				return false, err
			}
			if ok {
				if _, had := pending[ev.Bidder]; had {
					superseded++
				}
				pending[ev.Bidder] = bids
			}
		}
		if len(pending) == 0 {
			continue
		}
		stop, err := h.seal(rp.epochs, pending, superseded)
		rp.epochs++
		if err != nil || stop {
			return stop, err
		}
		pending, superseded = make(map[int][]uint64, len(pending)), 0
	}
	return false, nil
}

// epochInput is epoch e's input: the pending bidders ascending, their
// points and bids, and the epoch's round seed.
func (rp *replay) epochInput(e int, pending map[int][]uint64) input {
	in := input{label: e, ids: make([]int, 0, len(pending)), seed: epoch.EpochSeed(rp.svcSeed, e)}
	for id := range pending {
		in.ids = append(in.ids, id)
	}
	sort.Ints(in.ids)
	in.pts = make([]geo.Point, len(in.ids))
	in.bids = make([][]uint64, len(in.ids))
	for i, id := range in.ids {
		in.pts[i], in.bids[i] = rp.fx.points[id], pending[id]
	}
	return in
}

// sealed is one Seal call of the replay.
type sealed struct {
	sealStart  time.Time
	sealWait   time.Duration
	superseded int
}

// delivered is one EpochResult as the collector received it. Its award
// digest covers the admitted set, so the gate checks the set too.
type delivered struct {
	epoch  int
	at     time.Time
	n      int // admitted bidders
	digest [32]byte
	bytes  int
	err    error
}

// serviceRun drives one epoch.Service on the logical clock from a single
// goroutine and collects its results on another.
type serviceRun struct {
	fx      *fixture
	rp      *replay
	svc     *epoch.Service
	billing *timingStore
	quota   *timingStore

	// Owned by the replaying goroutine.
	admitted [][]bool // per pass, per arrival: whether the service admitted it
	epochs   []sealed
	admits   map[int]uint64 // admitted submissions per bidder (quota)
	submits  int
	shed     int
	intakeUs []float64 // per SubmitAt/Withdraw call, traced runs only
	problems []string

	// Collector-owned; outs is shared under mu.
	mu        sync.Mutex
	cond      *sync.Cond
	outs      []delivered
	billed    map[int]uint64
	collected chan struct{}
}

// newServiceRun builds the service with batched Billing and Quota
// ledgers over timing stores, and starts the result collector. Admission
// is configured as the deployed CLIs configure -rate-limit.
func newServiceRun(fx *fixture, w workload, traced bool) (*serviceRun, error) {
	r := &serviceRun{
		fx: fx, rp: &replay{fx: fx, svcSeed: stream(fx.seed, laneService, 0)},
		billing: newTimingStore(), quota: newTimingStore(),
		admits: make(map[int]uint64), billed: make(map[int]uint64), collected: make(chan struct{}),
	}
	if traced {
		r.intakeUs = []float64{}
	}
	r.cond = sync.NewCond(&r.mu)
	billing, err := epoch.NewAccountant("billing", r.billing, fx.params.BMax*4, nil)
	if err != nil {
		return nil, err
	}
	quota, err := epoch.NewAccountant("quota", r.quota, 64, nil)
	if err != nil {
		return nil, err
	}
	r.svc, err = epoch.New(epoch.Config{
		Params: fx.params, Ring: fx.ring, Seed: r.rp.svcSeed, Policy: fx.policy,
		Admission:    (&cli.EpochFlags{RateLimit: admitRate}).AdmissionConfig(),
		Billing:      billing,
		Quota:        quota,
		RoundOptions: w.roundOptions(),
	})
	if err != nil {
		return nil, err
	}
	go r.collect()
	return r, nil
}

// collect records every delivered epoch with its arrival time, and sums
// the charges the billing ledger should hold.
func (r *serviceRun) collect() {
	defer close(r.collected)
	for er := range r.svc.Results() {
		d := delivered{epoch: er.Epoch, at: time.Now(), n: len(er.Bidders), err: er.Err}
		if er.Err == nil {
			res := er.Result
			d.digest = awardOf(res).digest(er.Epoch, er.Bidders)
			d.bytes = res.SubmissionBytes
			for i, as := range res.Outcome.Assignments {
				if c := res.Outcome.Charges[i]; c > 0 {
					r.billed[er.Bidders[as.Bidder]] += c
				}
			}
		}
		r.mu.Lock()
		r.outs = append(r.outs, d)
		r.mu.Unlock()
		r.cond.Broadcast()
	}
}

// waitSealed blocks until every sealed epoch has been delivered.
func (r *serviceRun) waitSealed() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.outs) < len(r.epochs) {
		r.cond.Wait()
	}
}

// playPass replays one schedule pass through the service, sealing every
// logical second, and records which arrivals the service admitted. After
// each seal it asks stop (nil never stops) and returns true once it says so.
func (r *serviceRun) playPass(stop func() bool) (bool, error) {
	p := len(r.admitted)
	r.admitted = append(r.admitted, nil)
	return r.rp.pass(intakeHooks{
		submit: func(id int, bids []uint64, at float64) (bool, error) {
			ok, err := r.submit(id, bids, at)
			r.admitted[p] = append(r.admitted[p], ok)
			return ok, err
		},
		withdraw: r.withdraw,
		seal: func(_ int, _ map[int][]uint64, superseded int) (bool, error) {
			if err := r.seal(superseded); err != nil {
				return false, err
			}
			return stop != nil && stop(), nil
		},
	})
}

// seal closes the collecting epoch on the service, timing the call.
func (r *serviceRun) seal(superseded int) error {
	rec := sealed{superseded: superseded, sealStart: time.Now()}
	err := r.svc.Seal()
	rec.sealWait = time.Since(rec.sealStart)
	r.epochs = append(r.epochs, rec)
	return err
}

// submit offers one submission to the service's intake.
func (r *serviceRun) submit(id int, bids []uint64, at float64) (bool, error) {
	t := time.Now()
	err := r.svc.SubmitAt(epoch.Submission{Bidder: id, Point: r.fx.points[id], Bids: bids}, at)
	r.noteIntake(t)
	r.submits++
	var rl *epoch.ErrRateLimited
	switch {
	case err == nil:
		r.admits[id]++
		return true, nil
	case errors.As(err, &rl):
		r.shed++
		return false, nil
	}
	return false, err
}

// withdraw takes a departing bidder out of the service's intake and
// checks the service agrees with the mirror on whether it was pending.
func (r *serviceRun) withdraw(id int, had bool) error {
	t := time.Now()
	ok, err := r.svc.Withdraw(id)
	r.noteIntake(t)
	if err != nil {
		return err
	}
	if ok != had {
		r.problems = append(r.problems, fmt.Sprintf("withdraw of bidder %d: service pending=%v, mirror %v", id, ok, had))
	}
	return nil
}

func (r *serviceRun) noteIntake(t time.Time) {
	if r.intakeUs != nil {
		r.intakeUs = append(r.intakeUs, float64(time.Since(t))/float64(time.Microsecond))
	}
}

// inputs walks the played passes again, admitting exactly the arrivals
// the service admitted, and returns every sealed epoch's input.
func (r *serviceRun) inputs() ([]input, error) {
	rp := &replay{fx: r.fx, svcSeed: r.rp.svcSeed}
	ins := make([]input, 0, len(r.epochs))
	for _, adm := range r.admitted {
		next := 0
		if _, err := rp.pass(intakeHooks{
			submit: func(int, []uint64, float64) (bool, error) {
				next++
				return adm[next-1], nil
			},
			withdraw: func(int, bool) error { return nil },
			seal: func(e int, pending map[int][]uint64, _ int) (bool, error) {
				ins = append(ins, rp.epochInput(e, pending))
				return len(ins) == len(r.epochs), nil
			},
		}); err != nil {
			return nil, err
		}
	}
	if len(ins) != len(r.epochs) {
		return nil, fmt.Errorf("rebuilt %d epochs, the replay sealed %d", len(ins), len(r.epochs))
	}
	return ins, nil
}

// finish closes the service, waits for the collector, and checks the
// delivered epochs against the replay's seals and both ledgers against
// the totals the replay implies.
func (r *serviceRun) finish() error {
	if err := r.svc.Close(); err != nil {
		return err
	}
	<-r.collected
	if len(r.outs) != len(r.epochs) {
		r.problems = append(r.problems, fmt.Sprintf("service delivered %d epochs, replay sealed %d", len(r.outs), len(r.epochs)))
	}
	for e, d := range r.outs {
		if d.epoch != e {
			r.problems = append(r.problems, fmt.Sprintf("result %d is epoch %d", e, d.epoch))
		}
	}
	if err := r.billing.check("billing", r.billed); err != nil {
		r.problems = append(r.problems, err.Error())
	}
	if err := r.quota.check("quota", r.admits); err != nil {
		r.problems = append(r.problems, err.Error())
	}
	return nil
}

// startService is the service-churn set-up: the fixture, the service,
// and one warm-up pass whose epochs all complete.
func startService(w workload, seed int64, traced bool) (*serviceRun, error) {
	fx, err := newFixture(seed, populationN, channels)
	if err != nil {
		return nil, err
	}
	r, err := newServiceRun(fx, w, traced)
	if err != nil {
		return nil, err
	}
	if _, err := r.playPass(nil); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	r.waitSealed()
	return r, nil
}

// timedPasses replays passes until dur has passed at a seal, waits for
// every sealed epoch, and returns the index of the first timed epoch.
func (r *serviceRun) timedPasses(dur time.Duration) (first int, err error) {
	first = len(r.epochs)
	start := time.Now()
	stop := func() bool { return time.Since(start) >= dur }
	for {
		done, err := r.playPass(stop)
		if err != nil {
			return first, err
		}
		if done {
			break
		}
	}
	r.waitSealed()
	return first, nil
}

// runService is the untraced service-churn workload.
func runService(w workload, seed int64, dur time.Duration) (*e2eRun, error) {
	r, err := startService(w, seed, false)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	run := &e2eRun{before: snap()}
	start := time.Now()
	first, err := r.timedPasses(dur)
	if err != nil {
		return nil, err
	}
	run.wall = time.Since(start)
	run.after = snap()
	run.peakRSSMB = peakRSSMB()
	if err := r.finish(); err != nil {
		return nil, err
	}

	ins, err := r.inputs()
	if err != nil {
		return nil, err
	}
	for e := first; e < len(r.epochs) && e < len(r.outs); e++ {
		d := r.outs[e]
		run.clearings = append(run.clearings, clearing{
			label: e, n: d.n, dur: d.at.Sub(r.epochs[e].sealStart),
			digest: d.digest, err: d.err, bytes: d.bytes,
		})
	}
	run.failed = gate(r.fx, run.clearings, func(e int) input { return ins[e] })
	run.problems = append(run.problems, r.problems...)
	return run, nil
}
