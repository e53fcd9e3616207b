// Package p2p implements the point-to-point synchronization scheme of
// Park et al. that Javelin uses in place of per-level barriers
// (paper Section III-A, Fig. 4).
//
// Each level is a contiguous index range, dealt to the workers as
// contiguous blocks: worker w gets the w-th of Workers near-equal
// slices of the level, so adjacent rows (which share cache lines of
// the solution and factor arrays) stay on one worker. A block — one
// worker's rows within one level — is the unit of execution and of
// synchronization. Because a worker runs its blocks in level order,
// the assignment induces an implied total order per worker: when
// worker t has published progress counter c, its first c blocks are
// complete. The dependencies of every row in a block are therefore
// pruned, at build time, to at most one wait per producing worker —
// the highest-numbered block on that worker holding any of them —
// and a worker waits once at the start of a block, hands the body the
// whole index range, and publishes its counter once at the end. The
// waits are short spins on per-worker atomic counters (parking only
// when a producer is not running), letting fast workers run ahead of
// slow ones instead of stalling at a barrier, and the per-row cost is
// just the body's own work.
package p2p

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"javelin/internal/exec"
)

// cacheLinePad separates per-worker counters to avoid false sharing;
// 64 bytes is the common x86 line, 128 covers adjacent-line prefetch.
const cacheLinePad = 128

type paddedCounter struct {
	v atomic.Int64
	_ [cacheLinePad - 8]byte
}

// Range is the half-open index range [Lo, Hi).
type Range struct{ Lo, Hi int }

// DepFunc enumerates the dependency indices of index i by calling
// emit for each. Dependencies outside the scheduled levels are
// ignored.
type DepFunc func(i int, emit func(dep int))

// block is one worker's contiguous slice of one level together with
// its pruned waits: deps[dLo:dHi] of the worker's dependency list.
type block struct {
	lo, hi   int
	dLo, dHi int32
}

// dep is one pruned wait: worker w must have published at least need
// completed blocks.
type dep struct {
	w    int32
	need int32
}

// Schedule is a p2p execution plan: per worker, its blocks in
// execution order and their pruned waits. The plan is immutable after
// NewSchedule; all per-execution state (the per-worker progress
// counters) lives in Run objects, so any number of concurrent
// executions can share one plan — build once per (pattern, workers),
// then either call Schedule.Run (convenience, one execution at a
// time) or give each goroutine its own NewRun.
type Schedule struct {
	Workers int
	// rt executes the sweeps: each Execute is one gang of Workers
	// pieces on the persistent runtime (no per-call goroutines).
	rt     *exec.Runtime
	blocks [][]block
	deps   [][]dep
	// yield is set when the gang is wider than GOMAXPROCS at build
	// time: some pieces cannot be running, so a spinning waiter gives
	// its CPU to one that can instead of burning the spin budget.
	yield bool

	// defaultRun backs the Schedule.Run convenience method; concurrent
	// executions must use separate NewRun objects instead.
	defaultRun *Run
}

// Run holds the mutable state of one Schedule execution: the
// per-worker published progress counters, and the parking spot for
// waits that outlast spinBudget. A Run may be reused for any number
// of sequential executions; distinct Runs over the same Schedule may
// execute concurrently (each goroutine needs its own).
type Run struct {
	s        *Schedule
	progress []paddedCounter

	// parked counts workers blocked (or about to block) on wake; a
	// publisher that sees it nonzero broadcasts under mu.
	parked atomic.Int32
	mu     sync.Mutex
	wake   *sync.Cond
}

// spinBudget is how long a wait spins before it parks. Spinning keeps
// the common wait — a producer a block or so behind, or a gang piece
// still waking from a parked runtime worker — at cache-line latency;
// the budget is a few times that wake-up, so normal skew never parks.
// Parking bounds the cost when the producer is not running at all:
// when the host's CPUs are oversubscribed, a yield would requeue the
// waiter behind every runnable goroutine, while a parked waiter is
// woken directly by the publish it needs. (A gang wider than
// GOMAXPROCS yields while it spins as well; see Schedule.yield.)
const spinBudget = 300 * time.Microsecond

// NewRun creates an independent execution state for the schedule.
func (s *Schedule) NewRun() *Run {
	r := &Run{s: s, progress: make([]paddedCounter, s.Workers)}
	r.wake = sync.NewCond(&r.mu)
	return r
}

// NewSchedule builds a plan over the index space [0, n) for levels
// given in execution order; the indices of one level must be mutually
// independent, and the levels must be disjoint. deps enumerates each
// index's dependencies; those outside every level are ignored (the
// caller guarantees they complete before Run starts — e.g. corner
// rows during the backward sweep). rt is the execution runtime the
// sweeps run on (nil means the process-wide default); size it to at
// least workers lanes or every sweep falls back to spawning
// goroutines.
func NewSchedule(rt *exec.Runtime, levels []Range, n, workers int, deps DepFunc) *Schedule {
	if workers < 1 {
		workers = 1
	}
	if rt == nil {
		rt = exec.Default()
	}
	s := &Schedule{
		Workers: workers,
		rt:      rt,
		blocks:  make([][]block, workers),
		deps:    make([][]dep, workers),
		yield:   workers > runtime.GOMAXPROCS(0),
	}
	// Deal each level in contiguous slices and record, per scheduled
	// index, its owner and the owner's block number.
	owner := make([]int32, n)
	seq := make([]int32, n)
	for i := range owner {
		owner[i] = -1
	}
	for _, lv := range levels {
		chunk := (lv.Hi - lv.Lo + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := lv.Lo + w*chunk
			hi := min(lo+chunk, lv.Hi)
			if lo >= hi {
				break
			}
			b := int32(len(s.blocks[w]))
			for i := lo; i < hi; i++ {
				owner[i], seq[i] = int32(w), b
			}
			s.blocks[w] = append(s.blocks[w], block{lo: lo, hi: hi})
		}
	}
	// Prune: per block, keep only the highest producing block per other
	// worker; same-worker dependencies are implied by program order.
	maxSeq := make([]int32, workers)
	emit := func(d int) {
		if d < 0 || d >= n {
			return
		}
		if ow := owner[d]; ow >= 0 && seq[d] > maxSeq[ow] {
			maxSeq[ow] = seq[d]
		}
	}
	for w, blocks := range s.blocks {
		for bi := range blocks {
			b := &blocks[bi]
			for i := range maxSeq {
				maxSeq[i] = -1
			}
			for i := b.lo; i < b.hi; i++ {
				deps(i, emit)
			}
			b.dLo = int32(len(s.deps[w]))
			for ow, ms := range maxSeq {
				if ms >= 0 && ow != w {
					s.deps[w] = append(s.deps[w], dep{w: int32(ow), need: ms + 1})
				}
			}
			b.dHi = int32(len(s.deps[w]))
		}
	}
	s.defaultRun = s.NewRun()
	return s
}

// NumDeps returns the total number of pruned block waits
// (diagnostics).
func (s *Schedule) NumDeps() int {
	n := 0
	for _, d := range s.deps {
		n += len(d)
	}
	return n
}

// NumRows returns the number of scheduled indices.
func (s *Schedule) NumRows() int {
	n := 0
	for _, blocks := range s.blocks {
		for _, b := range blocks {
			n += b.hi - b.lo
		}
	}
	return n
}

// Run executes body over every block on the schedule's built-in
// default Run. It is the convenience path for single-caller use; for
// concurrent executions over one schedule, give each caller its own
// NewRun and call Execute on it.
func (s *Schedule) Run(body func(lo, hi int)) {
	s.defaultRun.Execute(body)
}

// Execute calls body(lo, hi) for every block as one gang of Workers
// pieces on the schedule's runtime, honoring all dependencies via p2p
// waits taken before each block. The gang guarantee (all pieces
// running at once) is what makes the waits safe; concurrent
// Executes over a shared runtime are admission-controlled, not
// deadlocked. body must complete every index of [lo, hi) before
// returning. A Run must not be executed concurrently with itself.
func (r *Run) Execute(body func(lo, hi int)) {
	for i := range r.progress {
		r.progress[i].v.Store(0)
	}
	s := r.s
	if s.Workers == 1 {
		r.runWorker(0, body)
		return
	}
	s.rt.Gang(s.Workers, func(w int) {
		r.runWorker(w, body)
	})
}

func (r *Run) runWorker(w int, body func(lo, hi int)) {
	deps := r.s.deps[w]
	mine := &r.progress[w].v
	for bi, b := range r.s.blocks[w] {
		for _, d := range deps[b.dLo:b.dHi] {
			if c := &r.progress[d.w].v; c.Load() < int64(d.need) {
				r.wait(c, int64(d.need))
			}
		}
		body(b.lo, b.hi)
		mine.Store(int64(bi + 1))
		if r.parked.Load() > 0 {
			r.mu.Lock()
			r.wake.Broadcast()
			r.mu.Unlock()
		}
	}
}

// wait blocks until *c reaches need: a spin of up to spinBudget
// (yielding between checks when the gang is oversubscribed), then
// parked on wake. A publisher stores its counter before it reads
// parked, and a waiter counts itself in parked before its locked
// re-check, so a publish is never missed.
func (r *Run) wait(c *atomic.Int64, need int64) {
	t0 := time.Now()
	for spins := 1; c.Load() < need; spins++ {
		if spins&63 != 0 {
			continue
		}
		if time.Since(t0) > spinBudget {
			r.parked.Add(1)
			r.mu.Lock()
			for c.Load() < need {
				r.wake.Wait()
			}
			r.mu.Unlock()
			r.parked.Add(-1)
			return
		}
		if r.s.yield && spins > 512 {
			runtime.Gosched()
		}
	}
}
