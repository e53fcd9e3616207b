package main

import (
	"context"
	"fmt"
	"time"

	"javelin"
	"javelin/internal/core"
	"javelin/internal/ilu"
	"javelin/internal/krylov"
	"javelin/internal/levelset"
	"javelin/internal/order"
	"javelin/internal/sparse"
	"javelin/internal/spmv"
	"javelin/internal/trisolve"
)

// Every replayed series gets at least minReps and at most maxReps
// calls, and runs for layerBudget in between.
const (
	minReps = 3
	maxReps = 2000
)

// layerBudget bounds how long one replayed series may take.
func (b *bench) layerBudget() time.Duration {
	if b.cfg.tiny {
		return 10 * time.Millisecond
	}
	return 250 * time.Millisecond
}

// series calls f at least minReps times and until layerBudget has
// passed, each call under a span named name, and returns the median
// duration in the given unit scale (1e3 for µs, 1e6 for ms) with the
// sample count. prep, when set, runs untimed before each call.
func (b *bench) series(tr *tracer, name string, scale float64, prep, f func()) metric {
	var xs []float64
	start := time.Now()
	for len(xs) < minReps || (time.Since(start) < b.layerBudget() && len(xs) < maxReps) {
		if prep != nil {
			prep()
		}
		op := tr.op()
		sp := tr.begin(name, -1, op)
		t0 := time.Now()
		f()
		d := time.Since(t0)
		tr.end(sp)
		xs = append(xs, float64(d.Nanoseconds())/scale)
	}
	unit := "us"
	if scale == 1e6 {
		unit = "ms"
	}
	return metric{Value: median(xs), Unit: unit, Samples: len(xs), Percentile: "p50"}
}

// derived is a metric computed from others, labelled so.
func derived(v float64, unit, how string) metric {
	return metric{Value: v, Unit: unit, Samples: 1, Note: "derived: " + how}
}

// count is an exact count.
func count(v int) metric { return metric{Value: float64(v), Unit: "count", Samples: 1} }

// layers replays each internal layer's public functions on the
// workload's input and stack, timing each call from here. The loop
// result and spans come from the traced measured loop, the first
// thing the tracer recorded, so its spans start at index 0.
func (b *bench) layers(tr *tracer, loop *loopResult, loopSpans []span) (map[string]metric, error) {
	out := map[string]metric{}
	sys := b.main

	// Set-up layers, on the generated matrix as internal/bench.Preorder
	// sees it. ZeroFreeDiagonal is timed even where set-up skips it.
	raw := b.raw
	out["order.zfd_ms"] = b.series(tr, "order.zero_free_diagonal", 1e6, nil, func() { order.ZeroFreeDiagonal(raw) })
	a0 := raw
	if !raw.HasFullDiagonal() {
		a0 = sparse.PermuteRows(raw, order.ZeroFreeDiagonal(raw))
	}
	var nd sparse.Perm
	out["order.nd_ms"] = b.series(tr, "order.nd", 1e6, nil, func() { nd = order.ComputeND(a0) })
	out["sparse.permute_ms"] = b.series(tr, "sparse.permute_sym", 1e6, nil, func() { sparse.PermuteSym(a0, nd, 0) })

	a := sys.m.Raw()
	if sys.vm != nil {
		a = sys.vm.Matrix().Raw() // the current generation
	}
	opt := core.DefaultOptions()
	opt.Threads = sys.threads
	pat, err := ilu.SymbolicPattern(a, opt.FillLevel)
	if err != nil {
		return nil, err
	}
	var split *levelset.Split
	out["levelset.split_ms"] = b.series(tr, "levelset.split", 1e6, nil, func() { split = levelset.ComputeSplit(pat, opt.Pattern, opt.Split) })
	out["levelset.levels"] = count(split.Lv.Count)
	out["levelset.nupper"] = count(split.NUpper)
	out["levelset.nlower"] = count(split.NLower())

	var engines []*core.Engine
	out["core.factorize_ms"] = b.series(tr, "core.factorize", 1e6, nil, func() {
		e, err := core.Factorize(a, opt)
		b.g.check(err)
		engines = append(engines, e)
	})
	e := engines[len(engines)-1]
	if e == nil {
		return nil, fmt.Errorf("core.Factorize failed on the workload matrix")
	}
	out["core.refactorize_ms"] = b.series(tr, "core.refactorize", 1e6, nil, func() { b.g.check(e.Refactorize(a)) })
	for _, e := range engines {
		if e != nil {
			e.Close()
		}
	}
	out["core.symbolic_ms"] = derived(out["core.factorize_ms"].Value-out["core.refactorize_ms"].Value, "ms",
		"core.factorize_ms - core.refactorize_ms")

	// Apply layers, on the workload's own engine.
	eng := sys.p.Engine()
	n := eng.N()
	v := randVecs(b.cfg.seed, 7, 1, n)[0]
	tmp := make([]float64, n)
	// Sweeps run in place, as Apply runs them; the copy of v that
	// feeds each one is untimed.
	reset := func() { copy(tmp, v) }
	c := eng.AcquireContext()
	out["core.lower_sweep_us"] = b.series(tr, "core.lower_sweep", 1e3, reset, func() { c.SolveLower(tmp, tmp) })
	out["core.upper_sweep_us"] = b.series(tr, "core.upper_sweep", 1e3, reset, func() { c.SolveUpper(tmp, tmp) })
	eng.ReleaseContext(c)
	f := eng.Factor()
	out["trisolve.lower_us"] = b.series(tr, "trisolve.lower", 1e3, reset, func() { trisolve.SolveLowerSerial(f, tmp, tmp) })
	out["trisolve.upper_us"] = b.series(tr, "trisolve.upper", 1e3, reset, func() { trisolve.SolveUpperSerial(f, tmp, tmp) })
	ap := sys.p.NewApplier()
	out["core.apply_us"] = b.series(tr, "core.apply", 1e3, nil, func() { ap.Apply(v, tmp) })
	sweeps := out["core.lower_sweep_us"].Value + out["core.upper_sweep_us"].Value
	out["core.perm_copy_us"] = derived(out["core.apply_us"].Value-sweeps, "us",
		"core.apply_us - core.lower_sweep_us - core.upper_sweep_us")
	out["p2p.sync_overhead_us"] = derived(sweeps-out["trisolve.lower_us"].Value-out["trisolve.upper_us"].Value, "us",
		"engine sweeps - serial CSR sweeps")

	// SpMV as the Solver runs it, and serially.
	y := make([]float64, n)
	if sys.threads > 1 {
		out["spmv.matvec_us"] = b.series(tr, "spmv.parallel", 1e3, nil, func() { spmv.ParallelOn(eng.Runtime(), a, v, y, sys.threads) })
	} else {
		out["spmv.matvec_us"] = b.series(tr, "spmv.serial", 1e3, nil, func() { spmv.Serial(a, v, y) })
	}
	out["spmv.matvec_us.serial"] = b.series(tr, "spmv.serial", 1e3, nil, func() { spmv.Serial(a, v, y) })
	// Bytes computed from array sizes: values and column indices once,
	// row pointers, x read once and y written once; cache misses are
	// not counted.
	bytes := float64(a.Nnz()*(8+8) + (n+1)*8 + 2*n*8)
	out["spmv.gbps_computed"] = metric{Value: bytes / (out["spmv.matvec_us"].Value * 1e3), Unit: "GB/s",
		Samples: out["spmv.matvec_us"].Samples, Note: "computed from array sizes, not measured traffic"}

	// Krylov split: the solve replayed through krylov with a
	// preconditioner that times each apply's parts.
	if err := b.krylovReplay(tr, a, out); err != nil {
		return nil, err
	}

	// exec.Stats deltas per operation, from the stack's own runtime.
	b.execDeltas(out)

	// Versioned values: UpdateValues on a private VersionedMatrix of
	// the workload's matrix, alternating two drift generations.
	vm, err := javelin.NewVersionedMatrix(sys.m)
	if err != nil {
		return nil, err
	}
	d, err := newDrifter(sys.m, b.cfg.seed)
	if err != nil {
		return nil, err
	}
	_, g1 := d.next()
	_, g2 := d.next()
	k := 0
	out["sparse.update_values_us"] = b.series(tr, "sparse.update_values", 1e3, nil, func() {
		k++
		if k%2 == 0 {
			b.g.check(vm.UpdateValues(g1))
		} else {
			b.g.check(vm.UpdateValues(g2))
		}
	})

	out["epoch.pairs_seen"] = count(len(loop.pairs))
	out["epoch.stale_solve_ratio"] = metric{Value: float64(loop.stale) / float64(max(loop.solves, 1)),
		Unit: "ratio", Samples: loop.solves}

	self := selfTimes(loopSpans, 0)
	for _, l := range []string{"perfbench", "javelin"} {
		out["self_ms."+l] = metric{Value: self[l], Unit: "ms", Samples: len(loopSpans),
			Note: "self time per measured-loop operation"}
	}
	return out, nil
}

// tracedPC applies the preconditioner the way SolveContext.Apply
// does — permute, lower sweep, upper sweep, permute back — with a
// span around each part.
type tracedPC struct {
	c      *core.SolveContext
	perm   sparse.Perm
	tmp    []float64
	tr     *tracer
	parent int
	op     int64
}

func (p *tracedPC) Apply(r, z []float64) {
	ap := p.tr.begin("core.apply", p.parent, p.op)
	sp := p.tr.begin("core.perm_copy", ap, p.op)
	p.perm.ApplyVec(r, p.tmp)
	p.tr.end(sp)
	sp = p.tr.begin("core.lower_sweep", ap, p.op)
	p.c.SolveLower(p.tmp, p.tmp)
	p.tr.end(sp)
	sp = p.tr.begin("core.upper_sweep", ap, p.op)
	p.c.SolveUpper(p.tmp, p.tmp)
	p.tr.end(sp)
	sp = p.tr.begin("core.perm_copy", ap, p.op)
	p.perm.ApplyVecInverse(p.tmp, z)
	p.tr.end(sp)
	p.tr.end(ap)
}

// krylovReplay solves the seeded right-hand sides through
// krylov.CG/GMRES with a tracedPC and the options the Solver uses,
// checks the answer matches the public Solver bit for bit, and
// reports the preconditioner and remaining time per solve.
func (b *bench) krylovReplay(tr *tracer, a *sparse.CSR, out map[string]metric) error {
	sys := b.main
	eng := sys.p.Engine()
	n := eng.N()
	kopt := krylov.Options{Tol: tol, Threads: sys.threads}
	if sys.threads > 1 {
		kopt.Runtime = eng.Runtime()
	}
	var pcs, rests []float64
	x := make([]float64, n)
	want := make([]float64, n)
	start := time.Now()
	for i := 0; i < minReps || (time.Since(start) < 4*b.layerBudget() && i < len(b.rhs)); i++ {
		rhs := b.rhs[i%len(b.rhs)]
		clear(want)
		wst, werr := sys.s.Solve(context.Background(), rhs, want)
		b.g.check(checkSolve(sys.m, sys.valsFor(wst.MatrixEpoch), wst, werr, rhs, want))

		op := tr.op()
		c := eng.AcquireContext()
		before := tr.len()
		root := tr.begin("krylov.solve", -1, op)
		kopt.Monitor = func(it krylov.IterInfo) bool {
			tr.end(tr.begin("krylov.iteration", root, op))
			return true
		}
		pc := &tracedPC{c: c, perm: eng.Perm(), tmp: make([]float64, n), tr: tr, parent: root, op: op}
		clear(x)
		var st krylov.Stats
		var err error
		if b.method == javelin.MethodCG {
			st, err = krylov.CG(a, pc, rhs, x, kopt)
		} else {
			st, err = krylov.GMRES(a, pc, rhs, x, kopt)
		}
		tr.end(root)
		eng.ReleaseContext(c)
		if err == nil && !st.Converged {
			err = fmt.Errorf("replayed solve did not converge")
		}
		if i := sameBits(want, x); err == nil && i >= 0 {
			err = fmt.Errorf("replayed solve differs from Solver.Solve at entry %d", i)
		}
		b.g.check(err)

		ss := tr.snapshot(before)
		var pcNs int64
		for _, s := range ss {
			if s.Name == "core.apply" {
				pcNs += s.End - s.Start
			}
		}
		total := ss[0].End - ss[0].Start
		pcs = append(pcs, float64(pcNs)/1e6)
		rests = append(rests, float64(total-pcNs)/1e6)
		self := selfTimes(ss, before)
		for _, l := range []string{"krylov", "core"} {
			prev := out["self_ms."+l]
			out["self_ms."+l] = metric{Value: prev.Value + self[l], Unit: "ms", Samples: prev.Samples + 1,
				Note: "self time per replayed solve"}
		}
	}
	for _, l := range []string{"krylov", "core"} {
		m := out["self_ms."+l]
		m.Value /= float64(m.Samples)
		out["self_ms."+l] = m
	}
	out["krylov.pc_ms"] = metric{Value: median(pcs), Unit: "ms", Samples: len(pcs), Percentile: "p50",
		Note: "preconditioner time per solve"}
	out["krylov.rest_ms"] = metric{Value: median(rests), Unit: "ms", Samples: len(rests), Percentile: "p50",
		Note: "matvec, reductions and orthogonalization per solve"}
	return nil
}

// execDeltas reports per-operation exec.Stats deltas of the main
// stack's own runtime for applies, solves and refactorizations.
func (b *bench) execDeltas(out map[string]metric) {
	sys := b.main
	n := sys.m.N()
	z := make([]float64, n)
	x := make([]float64, n)
	ap := sys.p.NewApplier()
	cur := sys.m
	if sys.vm != nil {
		cur = sys.vm.Matrix()
	}
	ops := map[string]func(i int){
		"apply": func(i int) { ap.Apply(b.rhs[i%len(b.rhs)], z) },
		"solve": func(i int) {
			rhs := b.rhs[i%len(b.rhs)]
			clear(x)
			st, err := sys.s.Solve(context.Background(), rhs, x)
			b.g.check(checkSolve(sys.m, sys.valsFor(st.MatrixEpoch), st, err, rhs, x))
		},
		"refactorize": func(int) { b.g.check(sys.p.Refactorize(cur)) },
	}
	for _, name := range execOps {
		f := ops[name]
		before := sys.p.RuntimeStats()
		k := 0
		start := time.Now()
		for ; k < minReps || time.Since(start) < b.layerBudget(); k++ {
			f(k)
		}
		d := sys.p.RuntimeStats().Sub(before)
		per := func(v uint64) float64 { return float64(v) / float64(k) }
		ratio := func(num, den uint64) float64 {
			if den == 0 {
				return 0
			}
			return float64(num) / float64(den)
		}
		vals := map[string]float64{
			"regions_per_op":       per(d.Regions),
			"chunks_per_region":    ratio(d.Chunks, d.Regions),
			"gangs_per_op":         per(d.Gangs),
			"gang_wait_us_per_op":  per(d.GangWaitNs) / 1e3,
			"parks_per_op":         per(d.Parks),
			"wakes_per_op":         per(d.Wakes),
			"spin_to_parks_per_op": per(d.SpinToParks),
			"steal_success_ratio":  ratio(d.StealSuccesses, d.StealAttempts),
		}
		for _, f := range execFields {
			out["exec."+name+"."+f.name] = metric{Value: vals[f.name], Unit: f.unit, Samples: k}
		}
	}
}
