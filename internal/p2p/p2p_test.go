package p2p

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"javelin/internal/exec"
	"javelin/internal/gen"
	"javelin/internal/levelset"
	"javelin/internal/sparse"
	"javelin/internal/util"
)

// testRT is a shared wide runtime so schedules up to 8 workers run on
// persistent lanes rather than the spawn fallback.
var testRT = exec.New(9)

// levelDAG is a random dependency DAG whose indices are already
// numbered level by level, the way the engine lays out its rows:
// levels[l] is a contiguous range, and every dependency of an index
// lies in an earlier level.
type levelDAG struct {
	n      int
	deps   [][]int
	levels []Range
}

// randomLevelDAG draws n indices with up to maxDeps dependencies each
// on earlier indices, computes their levels, and renumbers the indices
// level-major (stable within a level).
func randomLevelDAG(rng *util.RNG, n, maxDeps int) levelDAG {
	raw := make([][]int, n)
	lvl := make([]int, n)
	nLv := 0
	for i := 1; i < n; i++ {
		for e := rng.Intn(maxDeps + 1); e > 0; e-- {
			d := rng.Intn(i)
			raw[i] = append(raw[i], d)
			lvl[i] = max(lvl[i], lvl[d]+1)
		}
		nLv = max(nLv, lvl[i]+1)
	}
	nLv = max(nLv, 1)
	ptr := make([]int, nLv+1)
	for _, l := range lvl {
		ptr[l+1]++
	}
	g := levelDAG{n: n, deps: make([][]int, n), levels: make([]Range, nLv)}
	for l := range g.levels {
		ptr[l+1] += ptr[l]
		g.levels[l] = Range{ptr[l], ptr[l+1]}
	}
	pos := make([]int, n)
	for i, l := range lvl {
		pos[i] = ptr[l]
		ptr[l]++
	}
	for i, ds := range raw {
		for _, d := range ds {
			g.deps[pos[i]] = append(g.deps[pos[i]], pos[d])
		}
	}
	return g
}

func (g levelDAG) schedule(workers int) *Schedule {
	return NewSchedule(testRT, g.levels, g.n, workers, func(i int, emit func(int)) {
		for _, d := range g.deps[i] {
			emit(d)
		}
	})
}

// runChecked executes run once and reports dependency violations and
// per-index execution counts.
func (g levelDAG) runChecked(run func(body func(lo, hi int))) (violations int64, counts []atomic.Int64) {
	done := make([]atomic.Bool, g.n)
	counts = make([]atomic.Int64, g.n)
	var v atomic.Int64
	run(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for _, d := range g.deps[i] {
				if !done[d].Load() {
					v.Add(1)
				}
			}
		}
		for i := lo; i < hi; i++ {
			done[i].Store(true)
			counts[i].Add(1)
		}
	})
	return v.Load(), counts
}

// checkPruned verifies the schedule's static structure: blocks tile the
// levels, each block waits at most once per producing worker and never
// on itself, and those waits cover every dependency of every index in
// the block.
func checkPruned(t *testing.T, g levelDAG, s *Schedule) {
	t.Helper()
	owner := make([]int, g.n)
	seq := make([]int, g.n)
	for i := range owner {
		owner[i] = -1
	}
	for w, blocks := range s.blocks {
		for bi, b := range blocks {
			for i := b.lo; i < b.hi; i++ {
				if owner[i] >= 0 {
					t.Fatalf("index %d in two blocks", i)
				}
				owner[i], seq[i] = w, bi
			}
		}
	}
	for w, blocks := range s.blocks {
		for bi, b := range blocks {
			need := make(map[int32]int32)
			for _, d := range s.deps[w][b.dLo:b.dHi] {
				if int(d.w) == w {
					t.Fatalf("worker %d block %d waits on itself", w, bi)
				}
				if _, dup := need[d.w]; dup {
					t.Fatalf("worker %d block %d waits twice on worker %d", w, bi, d.w)
				}
				need[d.w] = d.need
			}
			for i := b.lo; i < b.hi; i++ {
				for _, d := range g.deps[i] {
					ow := owner[d]
					if ow == w {
						if seq[d] >= bi {
							t.Fatalf("index %d depends on %d in the same or a later block", i, d)
						}
						continue
					}
					if int(need[int32(ow)]) <= seq[d] {
						t.Fatalf("index %d: wait on worker %d does not cover dependency %d", i, ow, d)
					}
				}
			}
		}
	}
}

func TestScheduleRespectsDependencies(t *testing.T) {
	rng := util.NewRNG(1)
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for trial := 0; trial < 5; trial++ {
			g := randomLevelDAG(rng, 200+rng.Intn(400), 4)
			s := g.schedule(workers)
			checkPruned(t, g, s)
			v, _ := g.runChecked(s.Run)
			if v != 0 {
				t.Fatalf("workers=%d: %d dependency violations", workers, v)
			}
		}
	}
}

func TestScheduleRunsEveryRowExactlyOnce(t *testing.T) {
	check := func(seed uint64) bool {
		rng := util.NewRNG(seed)
		g := randomLevelDAG(rng, 60+rng.Intn(100), 3)
		for _, workers := range []int{2, 3, 4, 8} {
			s := g.schedule(workers)
			if s.NumRows() != g.n {
				return false
			}
			_, counts := g.runChecked(s.Run)
			for i := range counts {
				if counts[i].Load() != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPruningReducesDependencies(t *testing.T) {
	// On a mesh matrix laid out level by level, the pruned block waits
	// must be at most (workers − 1) per block and far fewer than the
	// raw cross-block sub-diagonal dependencies they replace.
	grid := gen.GridLaplacian(40, 40, 1, gen.Star5, 1)
	lv := levelset.Compute(grid, levelset.LowerA)
	var order []int
	levels := make([]Range, lv.Count)
	for l := range levels {
		levels[l].Lo = len(order)
		order = append(order, lv.LevelRows(l)...)
		levels[l].Hi = len(order)
	}
	a := sparse.PermuteSym(grid, sparse.Perm(order), 1)
	workers := 4
	s := NewSchedule(testRT, levels, a.N, workers, func(r int, emit func(int)) {
		cols, _ := a.Row(r)
		for _, c := range cols {
			if c < r {
				emit(c)
			}
		}
	})
	rawDeps, nBlocks := 0, 0
	for _, blocks := range s.blocks {
		nBlocks += len(blocks)
		for _, b := range blocks {
			for r := b.lo; r < b.hi; r++ {
				cols, _ := a.Row(r)
				for _, c := range cols {
					if c < b.lo {
						rawDeps++
					}
				}
			}
		}
	}
	if s.NumDeps() >= rawDeps/10 {
		t.Errorf("pruning ineffective: %d block waits vs %d raw cross-block deps", s.NumDeps(), rawDeps)
	}
	if s.NumDeps() > nBlocks*(workers-1) {
		t.Errorf("block waits %d exceed blocks·(w−1) bound %d", s.NumDeps(), nBlocks*(workers-1))
	}
	if s.NumRows() != a.N {
		t.Errorf("scheduled %d rows, want %d", s.NumRows(), a.N)
	}
}

func TestScheduleReusable(t *testing.T) {
	// Run twice; second run must behave identically (progress reset).
	g := levelDAG{n: 4, deps: [][]int{nil, {0}, {1}, {0, 2}},
		levels: []Range{{0, 1}, {1, 2}, {2, 3}, {3, 4}}}
	s := g.schedule(2)
	for round := 0; round < 3; round++ {
		v, counts := g.runChecked(s.Run)
		if v != 0 {
			t.Fatalf("round %d: %d dependency violations", round, v)
		}
		for i := range counts {
			if counts[i].Load() != 1 {
				t.Fatalf("round %d: row %d ran %d times", round, i, counts[i].Load())
			}
		}
	}
}

func TestSingleWorkerIsSequential(t *testing.T) {
	g := levelDAG{n: 6, deps: [][]int{nil, nil, {0}, {1}, {2}, {3}},
		levels: []Range{{0, 2}, {2, 4}, {4, 6}}}
	s := g.schedule(1)
	var got []int
	s.Run(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			got = append(got, i)
		}
	})
	for i, r := range got {
		if r != i {
			t.Fatalf("sequential order violated: %v", got)
		}
	}
	if len(got) != 6 || len(s.blocks[0]) != 3 || s.NumDeps() != 0 {
		t.Fatalf("ran %v in %d blocks with %d waits", got, len(s.blocks[0]), s.NumDeps())
	}
}

func TestDepsOutsideScheduleIgnored(t *testing.T) {
	// Indices 2,3 scheduled; index 2 depends on index 0 (not
	// scheduled) — the schedule must not deadlock.
	levels := []Range{{2, 3}, {3, 4}}
	s := NewSchedule(nil, levels, 4, 2, func(i int, emit func(int)) {
		emit(0) // unscheduled
		if i == 3 {
			emit(2)
		}
	})
	ran := make([]atomic.Bool, 4)
	s.Run(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ran[i].Store(true)
		}
	})
	if !ran[2].Load() || !ran[3].Load() {
		t.Fatal("scheduled rows did not run")
	}
}

func TestConcurrentRunsShareOneSchedule(t *testing.T) {
	// Many goroutines execute the same immutable plan at once, each
	// with its own Run; every execution must honor dependencies and
	// cover every row exactly once.
	g := randomLevelDAG(util.NewRNG(7), 400, 4)
	s := g.schedule(4)
	const goroutines = 6
	errs := make(chan string, goroutines)
	var wg sync.WaitGroup
	for gr := 0; gr < goroutines; gr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := s.NewRun()
			for round := 0; round < 3; round++ {
				v, counts := g.runChecked(run.Execute)
				if v != 0 {
					errs <- "dependency violations"
					return
				}
				for i := range counts {
					if counts[i].Load() != 1 {
						errs <- "row count mismatch"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
