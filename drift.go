package javelin

import (
	"math"
	"sync"
)

// DriftPolicy tunes monitor-driven automatic refactorization for a
// Solver over a VersionedMatrix (WithAutoRefactorize). The policy
// watches solve outcomes for numerical drift — the published matrix
// values moving away from the values the preconditioner was factored
// from — and triggers a background Refactorize from the newest matrix
// generation when drift shows. The zero value selects the defaults
// noted on each field.
type DriftPolicy struct {
	// IterGrowth triggers a refactorization when a solve against a
	// stale factor (matrix epoch newer than the factor's source) takes
	// more than IterGrowth × the baseline iteration count, where the
	// baseline is the best count observed on fresh (matching) pairs.
	// <= 0 means 1.5. Non-convergence on a stale pair always triggers.
	IterGrowth float64
	// ResidualGrowth triggers mid-solve drift detection: a solve whose
	// relative residual rises above ResidualGrowth × the best residual
	// it has reached is marked drifting (stagnation/divergence under a
	// stale preconditioner). <= 0 disables the signal.
	ResidualGrowth float64
	// MinSolves is how many fresh-pair solves must establish the
	// baseline before the IterGrowth signal arms. <= 0 means 1.
	MinSolves int
	// OnRefactorize, when non-nil, is called after every background
	// refactorization attempt with its outcome. It runs on the
	// background goroutine; keep it brief and concurrency-safe.
	OnRefactorize func(RefactorizeEvent)
}

func (p DriftPolicy) withDefaults() DriftPolicy {
	if p.IterGrowth <= 0 {
		p.IterGrowth = 1.5
	}
	if p.MinSolves <= 0 {
		p.MinSolves = 1
	}
	return p
}

// RefactorizeEvent reports one background auto-refactorization
// attempt to DriftPolicy.OnRefactorize.
type RefactorizeEvent struct {
	// MatrixEpoch is the matrix value generation the refactorization
	// ran against (pinned for its whole duration).
	MatrixEpoch uint64
	// FactorEpoch is the newly published factor generation, or 0 when
	// the attempt failed (the previous factor keeps serving).
	FactorEpoch uint64
	// Err is the Refactorize error on failure, nil on success.
	Err error
}

// DriftStats counts a Solver's automatic-refactorization activity
// (zero unless WithAutoRefactorize is configured).
type DriftStats struct {
	// Triggers counts drift detections that launched a background
	// refactorization.
	Triggers uint64
	// Published counts refactorizations that succeeded and published a
	// new factor epoch.
	Published uint64
	// Failures counts refactorizations that failed; each left the
	// previous (A, factor) pair serving.
	Failures uint64
	// Skipped counts drift detections coalesced into an already
	// in-flight or already completed refactorization (single-flight).
	Skipped uint64
}

// driftController implements the auto-refactorization policy: it
// folds every solve outcome into a baseline, detects drift on stale
// (A-epoch, factor-epoch) pairs, and runs at most one background
// Refactorize at a time against a pinned matrix epoch. A failed
// attempt changes nothing except the failure counter — the previous
// pair keeps serving.
type driftController struct {
	vm  *VersionedMatrix
	p   *Preconditioner
	pol DriftPolicy

	// probes pools per-solve residual trackers so the monitor hook
	// allocates nothing once warm.
	probes sync.Pool
	// userMon is the caller's WithMonitor callback, chained after the
	// probe's residual bookkeeping.
	userMon func(IterInfo) bool

	mu sync.Mutex
	// stopped blocks new triggers once Close begins.
	stopped bool //javelin:plain-under-mu mu
	// inflight is the single-flight latch: true while a background
	// refactorization is running.
	inflight bool //javelin:plain-under-mu mu
	// srcEpoch is the matrix generation the current factor was built
	// from; solves whose MatrixEpoch is newer run on a stale pair.
	srcEpoch uint64 //javelin:plain-under-mu mu
	// baseline is the best iteration count seen on fresh pairs since
	// the last publish; baseCount is how many solves informed it.
	baseline  int        //javelin:plain-under-mu mu
	baseCount int        //javelin:plain-under-mu mu
	stats     DriftStats //javelin:plain-under-mu mu
	// wg tracks the in-flight background goroutine for Close.
	wg sync.WaitGroup
}

// driftProbe is one solve's residual tracker: the prebuilt fn is
// handed to the Krylov loop as its Monitor, records the best residual
// seen, and flags growth past the policy threshold. Pooled so the
// monitor path stays allocation-free.
type driftProbe struct {
	growth float64
	user   func(IterInfo) bool
	minRes float64
	grew   bool
	fn     func(IterInfo) bool
}

func newDriftController(vm *VersionedMatrix, p *Preconditioner, pol DriftPolicy, userMon func(IterInfo) bool) *driftController {
	dc := &driftController{
		vm:       vm,
		p:        p,
		pol:      pol.withDefaults(),
		userMon:  userMon,
		srcEpoch: vm.Epoch(),
	}
	dc.probes.New = func() any {
		pr := &driftProbe{growth: dc.pol.ResidualGrowth, user: dc.userMon}
		pr.fn = func(it IterInfo) bool {
			if it.Residual < pr.minRes {
				pr.minRes = it.Residual
			} else if pr.growth > 0 && it.Residual > pr.growth*pr.minRes {
				pr.grew = true
			}
			if pr.user != nil {
				return pr.user(it)
			}
			return true
		}
		return pr
	}
	return dc
}

// acquireProbe checks a reset residual tracker out of the pool.
//
//javelin:alloc-ok pool warm-up: allocates a probe only until the pool holds one per concurrent solve
func (dc *driftController) acquireProbe() *driftProbe {
	pr := dc.probes.Get().(*driftProbe)
	pr.minRes = math.Inf(1)
	pr.grew = false
	return pr
}

//javelin:noalloc
func (dc *driftController) releaseProbe(pr *driftProbe) {
	dc.probes.Put(pr)
}

// observe folds one finished solve into the policy. Fresh pairs (the
// solve's matrix epoch matches the factor's source) update the
// iteration baseline; stale pairs are tested against the drift
// signals and may launch the single-flight background refactorize.
// converged is the raw Krylov outcome; grew is the probe's mid-solve
// residual-growth flag.
func (dc *driftController) observe(st SolverStats, converged, grew bool) {
	dc.mu.Lock()
	if st.MatrixEpoch == dc.srcEpoch {
		if dc.baseCount == 0 || st.Iterations < dc.baseline {
			dc.baseline = st.Iterations
		}
		dc.baseCount++
		dc.mu.Unlock()
		return
	}
	if st.MatrixEpoch < dc.srcEpoch {
		// The solve pinned an older matrix than the factor's source
		// (it raced a publish); nothing to learn.
		dc.mu.Unlock()
		return
	}
	trigger := grew || !converged
	if !trigger && dc.baseCount >= dc.pol.MinSolves &&
		float64(st.Iterations) > dc.pol.IterGrowth*float64(dc.baseline) {
		trigger = true
	}
	if !trigger {
		dc.mu.Unlock()
		return
	}
	if dc.stopped || dc.inflight {
		dc.stats.Skipped++
		dc.mu.Unlock()
		return
	}
	dc.inflight = true
	dc.stats.Triggers++
	dc.wg.Add(1)
	dc.mu.Unlock()
	//javelin:alloc-ok the background refactorization runs off the solve path, once per drift trigger
	go dc.refactorize()
}

// refactorize is the background single-flight worker: it pins the
// newest matrix generation for the whole numeric refactorization so
// the factor is built from one consistent A, then records the
// outcome. On failure the previously published factor epoch stays
// current (Refactorize's own guarantee) and only the counter moves.
func (dc *driftController) refactorize() {
	defer dc.wg.Done()
	ep := dc.vm.Pin()
	defer dc.vm.Unpin(ep)
	err := dc.p.e.Refactorize(dc.vm.withVals(ep.Vals()))
	ev := RefactorizeEvent{MatrixEpoch: ep.Seq(), Err: err}
	dc.mu.Lock()
	dc.inflight = false
	if err == nil {
		dc.srcEpoch = ep.Seq()
		dc.baseline, dc.baseCount = 0, 0
		dc.stats.Published++
		ev.FactorEpoch = dc.p.e.FactorEpoch()
	} else {
		dc.stats.Failures++
	}
	dc.mu.Unlock()
	if dc.pol.OnRefactorize != nil {
		dc.pol.OnRefactorize(ev)
	}
}

// snapshot returns the counters under the lock.
func (dc *driftController) snapshot() DriftStats {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return dc.stats
}

// close stops new triggers and waits for an in-flight background
// refactorization to finish (it is never abandoned mid-publish).
func (dc *driftController) close() {
	dc.mu.Lock()
	dc.stopped = true
	dc.mu.Unlock()
	dc.wg.Wait()
}
