package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"javelin"
	"javelin/internal/gen"
	"javelin/internal/sparse"
)

// The three workloads. Each stresses different layers; see the
// record in baseline.json for why each was chosen.
const (
	wlPoisson   = "poisson3d-cg"
	wlPowerflow = "powerflow-tstep"
	wlCircuit   = "circuit-2callers"
)

var workloads = []string{wlPoisson, wlPowerflow, wlCircuit}

// updateEvery is the circuit-2callers op mix: caller 0 replaces
// every 8th solve with UpdateValues + Refactorize.
const updateEvery = 8

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool   // small inputs, for the package's own tests
	spans    string // where a traced run writes its spans
	// corrupt, when set, alters every returned solution before the
	// correctness gate sees it (the gate's own test uses it).
	corrupt func(x []float64)
}

// generate builds the workload's input matrix from the seed and
// names the Krylov method that solves it.
func generate(cfg config) (*sparse.CSR, javelin.Method, error) {
	switch cfg.workload {
	case wlPoisson:
		k := 40
		if cfg.tiny {
			k = 10
		}
		return gen.GridLaplacian(k, k, k, gen.Star7, 0.01), javelin.MethodCG, nil
	case wlPowerflow:
		o := gen.PowerFlowOptions{Blocks: 10, BlockSize: 200, BlockFill: 0.5, ChainSpan: 2, Seed: cfg.seed}
		if cfg.tiny {
			o.Blocks, o.BlockSize = 4, 30
		}
		return gen.PowerFlow(o), javelin.MethodGMRES, nil
	case wlCircuit:
		o := gen.CircuitOptions{N: 60000, AvgDeg: 9, NumHubs: 60000 / 4000, HubDeg: 200,
			UnsymFrac: 0.35, Locality: 96, Seed: cfg.seed}
		if cfg.tiny {
			o.N, o.NumHubs, o.HubDeg = 3000, 1, 40
		}
		return gen.Circuit(o), javelin.MethodGMRES, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
}

// system is one ready solver stack: a preordered matrix, its
// factorization at a fixed thread count, and a Solver over both.
type system struct {
	m       *javelin.Matrix          // preordered; holds generation 1's values
	vm      *javelin.VersionedMatrix // nil for a static matrix
	p       *javelin.Preconditioner
	s       *javelin.Solver
	threads int
	gens    *history // values of the generations solves may pin; nil for a static matrix
	drift   *drifter // nil for a static matrix
}

func (s *system) close() {
	s.s.Close()
	s.p.Close()
}

// preorder applies exactly what internal/bench.Preorder does, through
// the public API: a zero-free-diagonal row permutation when the
// diagonal has holes, then symmetric nested dissection.
func preorder(raw *sparse.CSR) (*javelin.Matrix, error) {
	m, err := javelin.WrapCSR(raw)
	if err != nil {
		return nil, err
	}
	if !raw.HasFullDiagonal() {
		m = javelin.PermuteRows(m, javelin.ZeroFreeDiagonal(m))
	}
	return javelin.PermuteSym(m, javelin.ComputeOrdering(javelin.OrderND, m)), nil
}

// build factorizes m at the given thread count and wraps it in a
// Solver, versioned when the workload updates values.
func build(m *javelin.Matrix, threads int, method javelin.Method, versioned bool, tr *tracer, parent int, op int64) (*system, error) {
	opt := javelin.DefaultOptions()
	opt.Threads = threads
	sp := tr.begin("javelin.factorize", parent, op)
	p, err := javelin.Factorize(m, opt)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("factorize: %w", err)
	}
	sys := &system{m: m, p: p, threads: threads}
	opts := []javelin.SolverOption{javelin.WithMethod(method), javelin.WithTol(tol), javelin.WithThreads(threads)}
	sp = tr.begin("javelin.new_solver", parent, op)
	defer tr.end(sp)
	if versioned {
		sys.vm, err = javelin.NewVersionedMatrix(m)
		if err == nil {
			sys.s, err = javelin.NewVersionedSolver(sys.vm, p, opts...)
		}
	} else {
		sys.s, err = javelin.NewSolver(m, p, opts...)
	}
	if err != nil {
		p.Close()
		return nil, fmt.Errorf("solver: %w", err)
	}
	return sys, nil
}

// track readies a versioned stack for the measured loop: history
// starts with generation 1's values and a drifter makes the next ones.
// It is benchmark bookkeeping, so it runs outside the timed set-up.
func (s *system) track(seed uint64) error {
	if s.vm == nil {
		return nil
	}
	s.gens = &history{vals: map[uint64][]float64{s.vm.Epoch(): s.m.Raw().Val}}
	var err error
	s.drift, err = newDrifter(s.m, seed)
	return err
}

// valsFor returns the values of the matrix generation a solve pinned.
func (s *system) valsFor(epoch uint64) []float64 {
	if s.gens == nil {
		return s.m.Raw().Val
	}
	return s.gens.get(epoch)
}

// history holds the values of every matrix generation a solve may
// still have pinned, keyed by the VersionedMatrix epoch.
type history struct {
	mu   sync.Mutex
	vals map[uint64][]float64
}

// keep is how many recent generations history retains; a solve that
// pinned an older one fails the gate.
const keep = 6

func (h *history) put(epoch uint64, vals []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.vals[epoch] = vals
	for e := range h.vals {
		if e+keep <= epoch {
			delete(h.vals, e)
		}
	}
}

func (h *history) get(epoch uint64) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.vals[epoch]
}

// drifter produces the seeded value drift: generation k scales every
// base value by its own factor drawn from [0.99, 1.01]. It owns a
// ring of value buffers, each wrapped once in a Matrix, larger than
// history so a buffer is rewritten only after history dropped it.
type drifter struct {
	base []float64
	seed uint64
	k    uint64
	bufs [][]float64
	mats []*javelin.Matrix
}

func newDrifter(m *javelin.Matrix, seed uint64) (*drifter, error) {
	c := m.Raw()
	d := &drifter{base: c.Val, seed: seed}
	for i := 0; i < keep+2; i++ {
		buf := make([]float64, len(c.Val))
		w, err := javelin.WrapCSR(&sparse.CSR{N: c.N, M: c.M, RowPtr: c.RowPtr, ColIdx: c.ColIdx, Val: buf})
		if err != nil {
			return nil, err
		}
		d.bufs = append(d.bufs, buf)
		d.mats = append(d.mats, w)
	}
	return d, nil
}

// next fills the next buffer with the next generation's values.
func (d *drifter) next() (*javelin.Matrix, []float64) {
	i := int(d.k % uint64(len(d.bufs)))
	d.k++
	rng := rand.New(rand.NewPCG(d.seed, 1000+d.k))
	buf := d.bufs[i]
	for j, v := range d.base {
		buf[j] = v * (1 + 0.02*(rng.Float64()-0.5))
	}
	return d.mats[i], buf
}

// randVecs returns count seeded standard-normal vectors of length n.
func randVecs(seed, stream uint64, count, n int) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, stream))
	out := make([][]float64, count)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64()
		}
	}
	return out
}

// loopResult is what one measured loop (or one caller of it) saw.
type loopResult struct {
	t      timings
	solves int           // verified solves counted toward solves_per_s
	iters  int           // their Krylov iterations
	wall   time.Duration // wall time of the counted phase
	pairs  map[[2]uint64]bool
	stale  int // counted solves whose factor epoch lagged their matrix epoch
}

func newLoopResult() *loopResult {
	return &loopResult{t: timings{}, pairs: map[[2]uint64]bool{}}
}

func (l *loopResult) merge(o *loopResult) {
	l.t.merge(o.t)
	l.solves += o.solves
	l.iters += o.iters
	l.stale += o.stale
	for k := range o.pairs {
		l.pairs[k] = true
	}
}

// bench holds one run's workload state.
type bench struct {
	cfg    config
	nproc  int
	method javelin.Method
	raw    *sparse.CSR
	main   *system // the stack at the workload's thread count
	serial *system // a 1-thread stack on the same matrix; nil on circuit-2callers, whose main stack is 1-thread
	rhs    [][]float64
	g      gate
	heap   uint64
}

// setup generates the input and builds the stacks the measured loop
// runs on. The measured loop times set-up itself, as one of its
// phases.
func (b *bench) setup() error {
	raw, method, err := generate(b.cfg)
	if err != nil {
		return err
	}
	b.raw, b.method = raw, method
	if b.main, _, err = b.setupOnce(nil); err != nil {
		return err
	}
	if err := b.main.track(b.cfg.seed); err != nil {
		return err
	}
	if b.cfg.workload != wlCircuit {
		if b.serial, err = build(b.main.m, 1, method, b.versioned(), nil, -1, 0); err != nil {
			return err
		}
		if err := b.serial.track(b.cfg.seed); err != nil {
			return err
		}
	}
	b.rhs = randVecs(b.cfg.seed, 1, 4, raw.N)
	return nil
}

func (b *bench) versioned() bool { return b.cfg.workload != wlPoisson }

// setupOnce is one timed set-up: generated CSR to ready Solver.
func (b *bench) setupOnce(tr *tracer) (*system, time.Duration, error) {
	threads := b.nproc
	if b.cfg.workload == wlCircuit {
		threads = 1
	}
	op := tr.op()
	t0 := time.Now()
	root := tr.begin("perfbench.setup", -1, op)
	sp := tr.begin("javelin.preorder", root, op)
	m, err := preorder(b.raw)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sys, err := build(m, threads, b.method, b.versioned(), tr, root, op)
	tr.end(root)
	return sys, time.Since(t0), err
}

func (b *bench) close() {
	if b.serial != nil {
		b.serial.close()
	}
	if b.main != nil {
		b.main.close()
	}
}

// sampleHeap records the peak live HeapInuse; called at the start
// and end of a measured loop. It collects first, so the figure is
// live data rather than whatever garbage the pacer had left.
func (b *bench) sampleHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > b.heap {
		b.heap = ms.HeapInuse
	}
}

// solve runs one verified solve of rhs on sys, records its latency
// under key, and returns it with the solve's stats.
func (b *bench) solve(sys *system, rhs, x []float64, key string, lr *loopResult) (time.Duration, javelin.SolverStats) {
	clear(x)
	t0 := time.Now()
	st, err := sys.s.Solve(context.Background(), rhs, x)
	d := time.Since(t0)
	if b.cfg.corrupt != nil {
		b.cfg.corrupt(x)
	}
	b.g.check(checkSolve(sys.m, sys.valsFor(st.MatrixEpoch), st, err, rhs, x))
	lr.t.add(key, ms(d))
	return d, st
}

// count adds a solve to the throughput, iteration and epoch tallies.
// Every update pairs one UpdateValues with one Refactorize and both
// sequences start at 1, so a solve is stale exactly when its factor
// epoch is below its matrix epoch.
func (lr *loopResult) count(st javelin.SolverStats) {
	lr.solves++
	lr.iters += st.Iterations
	lr.pairs[[2]uint64{st.MatrixEpoch, st.FactorEpoch}] = true
	if st.MatrixEpoch > 0 && st.FactorEpoch < st.MatrixEpoch {
		lr.stale++
	}
}

// update publishes the next drift generation on sys and refactorizes
// its preconditioner on it; only one caller per system may update.
func (b *bench) update(sys *system, suffix string, lr *loopResult, tr *tracer, parent int, op int64) time.Duration {
	m, vals := sys.drift.next()
	sys.gens.put(sys.vm.Epoch()+1, vals)
	t0 := time.Now()
	sp := tr.begin("javelin.update_values", parent, op)
	err := sys.vm.UpdateValues(vals)
	tr.end(sp)
	b.g.check(err)
	t1 := time.Now()
	sp = tr.begin("javelin.refactorize", parent, op)
	err = sys.p.Refactorize(m)
	tr.end(sp)
	d := time.Since(t1)
	b.g.check(err)
	lr.t.add("refactor_ms"+suffix, ms(d))
	return time.Since(t0)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func finiteErr(z []float64) error {
	if !finite(z) {
		return fmt.Errorf("apply returned a non-finite entry")
	}
	return nil
}
