package main

import (
	"runtime"
	"sync"
	"time"

	"javelin"
)

// caller is one closed-loop client: it issues its next operation only
// after the previous one returned. It keeps its place in the op
// sequence across the slices a measured loop is cut into.
type caller struct {
	sys *system
	i   int
	x   []float64
	a   *javelin.Applier
}

func newCaller(sys *system, first int) *caller {
	return &caller{sys: sys, i: first, x: make([]float64, sys.m.N()), a: sys.p.NewApplier()}
}

// phase is one part of a measured loop.
type phase struct {
	share float64
	slice time.Duration
	run   func(d time.Duration)
	spent time.Duration
}

// interleave runs the phases in short slices until budget has passed,
// always picking the phase furthest behind its share of the time, so
// every metric samples the whole run rather than one stretch of it.
// Every phase runs at least once.
func interleave(budget time.Duration, phases []*phase) {
	start := time.Now()
	for {
		var p *phase
		for _, q := range phases {
			if p == nil || float64(q.spent)/q.share < float64(p.spent)/p.share {
				p = q
			}
		}
		if p.spent > 0 && time.Since(start) >= budget {
			return
		}
		t0 := time.Now()
		p.run(min(p.slice, budget/8))
		p.spent += time.Since(t0)
	}
}

// solveLoop runs c's closed-loop solves for d.
func (b *bench) solveLoop(c *caller, d time.Duration, suffix string, counted bool, lr *loopResult, tr *tracer) {
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		op := tr.op()
		root := tr.begin("perfbench.op", -1, op)
		sp := tr.begin("javelin.solve", root, op)
		dt, st := b.solve(c.sys, b.rhs[c.i%len(b.rhs)], c.x, "solve_ms"+suffix, lr)
		tr.end(sp)
		tr.end(root)
		c.i++
		if counted {
			lr.t.add("step_ms", ms(dt))
			lr.count(st)
		}
	}
}

// stepLoop runs c's closed-loop time steps for d: drift,
// UpdateValues, Refactorize, Solve.
func (b *bench) stepLoop(c *caller, d time.Duration, suffix string, counted bool, lr *loopResult, tr *tracer) {
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		op := tr.op()
		root := tr.begin("perfbench.op", -1, op)
		du := b.update(c.sys, suffix, lr, tr, root, op)
		sp := tr.begin("javelin.solve", root, op)
		ds, st := b.solve(c.sys, b.rhs[c.i%len(b.rhs)], c.x, "solve_ms"+suffix, lr)
		tr.end(sp)
		tr.end(root)
		c.i++
		if counted {
			lr.t.add("step_ms", ms(du+ds))
			lr.count(st)
		}
	}
}

// callerLoop runs one circuit-2callers caller for d: closed-loop
// solves, every updateEvery-th op replaced by an update when the
// caller is the updater. The updater's first op is an update, so even
// a short run measures one.
func (b *bench) callerLoop(c *caller, d time.Duration, suffix string, updater, counted bool, lr *loopResult, tr *tracer) {
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		op := tr.op()
		root := tr.begin("perfbench.op", -1, op)
		var dt time.Duration
		if updater && c.i%updateEvery == 0 {
			dt = b.update(c.sys, suffix, lr, tr, root, op)
		} else {
			sp := tr.begin("javelin.solve", root, op)
			var st javelin.SolverStats
			dt, st = b.solve(c.sys, b.rhs[c.i%len(b.rhs)], c.x, "solve_ms"+suffix, lr)
			tr.end(sp)
			if counted {
				lr.count(st)
			}
		}
		tr.end(root)
		c.i++
		if counted {
			lr.t.add("step_ms", ms(dt))
		}
	}
}

// applyLoop times c's Applier.Apply calls for d under key.
func (b *bench) applyLoop(c *caller, d time.Duration, key string, lr *loopResult, tr *tracer) {
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		op := tr.op()
		sp := tr.begin("javelin.apply", -1, op)
		t0 := time.Now()
		c.a.Apply(b.rhs[c.i%len(b.rhs)], c.x)
		dt := time.Since(t0)
		tr.end(sp)
		c.i++
		b.g.check(finiteErr(c.x))
		lr.t.add(key, us(dt))
	}
}

// refactorLoop times Preconditioner.Refactorize on c's stack, on its
// unchanged values, for d under key.
func (b *bench) refactorLoop(c *caller, d time.Duration, key string, lr *loopResult, tr *tracer) {
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		op := tr.op()
		sp := tr.begin("javelin.refactorize", -1, op)
		t0 := time.Now()
		err := c.sys.p.Refactorize(c.sys.m)
		dt := time.Since(t0)
		tr.end(sp)
		b.g.check(err)
		lr.t.add(key, ms(dt))
	}
}

// setupLoop times full set-ups, generated CSR to ready Solver, for d
// and drops each stack. Running set-up as a phase spreads its samples
// over the whole run. Collecting before and after each set-up keeps
// it from starting on another phase's garbage or leaving its own for
// a later phase to collect.
func (b *bench) setupLoop(d time.Duration, lr *loopResult, tr *tracer) {
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		runtime.GC()
		sys, dt, err := b.setupOnce(tr)
		b.g.check(err)
		if err == nil {
			sys.close()
			lr.t.add("setup_s", dt.Seconds())
		}
	}
	runtime.GC()
}

// together runs one loop per caller concurrently for d and merges
// what they saw into lr.
func together(callers []*caller, lr *loopResult, loop func(c *caller, k int, part *loopResult)) {
	parts := make([]*loopResult, len(callers))
	var wg sync.WaitGroup
	for k, c := range callers {
		parts[k] = newLoopResult()
		wg.Add(1)
		go func(k int, c *caller) {
			defer wg.Done()
			loop(c, k, parts[k])
		}(k, c)
	}
	wg.Wait()
	for _, p := range parts {
		lr.merge(p)
	}
}

// measure runs the workload's measured loop for budget and returns
// what it saw. Shares are relative weights. The first phase of each
// workload is the one at the workload's own thread count and caller
// count; its time is the wall time solves_per_s is measured over.
func (b *bench) measure(budget time.Duration, tr *tracer) *loopResult {
	lr := newLoopResult()
	b.heap = 0
	b.sampleHeap()
	const slice = 250 * time.Millisecond
	var phases []*phase
	switch b.cfg.workload {
	case wlPoisson:
		m, s := newCaller(b.main, 0), newCaller(b.serial, 0)
		ma, sa := newCaller(b.main, 0), newCaller(b.serial, 0)
		phases = []*phase{
			{share: 0.5, slice: slice, run: func(d time.Duration) { b.solveLoop(m, d, "", true, lr, tr) }},
			{share: 0.3, slice: slice, run: func(d time.Duration) { b.solveLoop(s, d, ".serial", false, lr, tr) }},
			{share: 0.05, slice: slice, run: func(d time.Duration) { b.applyLoop(ma, d, "apply_us", lr, tr) }},
			{share: 0.05, slice: slice, run: func(d time.Duration) { b.applyLoop(sa, d, "apply_us.serial", lr, tr) }},
			{share: 0.05, slice: slice, run: func(d time.Duration) { b.refactorLoop(m, d, "refactor_ms", lr, tr) }},
			{share: 0.05, slice: slice, run: func(d time.Duration) { b.refactorLoop(s, d, "refactor_ms.serial", lr, tr) }},
		}
	case wlPowerflow:
		m, s := newCaller(b.main, 0), newCaller(b.serial, 0)
		phases = []*phase{
			{share: 0.45, slice: slice, run: func(d time.Duration) { b.stepLoop(m, d, "", true, lr, tr) }},
			{share: 0.35, slice: slice, run: func(d time.Duration) { b.stepLoop(s, d, ".serial", false, lr, tr) }},
			{share: 0.1, slice: slice, run: func(d time.Duration) { b.applyLoop(m, d, "apply_us", lr, tr) }},
			{share: 0.1, slice: slice, run: func(d time.Duration) { b.applyLoop(s, d, "apply_us.serial", lr, tr) }},
		}
	case wlCircuit:
		// Two callers share the stack and caller 0 publishes updates;
		// one caller alone gives the uncontended (serial) figures.
		// Contended slices are long, so the join at a slice's end
		// idles a caller for a small share of the slice only.
		pair := []*caller{newCaller(b.main, 0), newCaller(b.main, 2)}
		alone := newCaller(b.main, 0)
		applyPair := []*caller{newCaller(b.main, 0), newCaller(b.main, 1)}
		phases = []*phase{
			{share: 0.6, slice: 2 * time.Second, run: func(d time.Duration) {
				together(pair, lr, func(c *caller, k int, part *loopResult) {
					b.callerLoop(c, d, "", k == 0, true, part, tr)
				})
			}},
			{share: 0.25, slice: slice, run: func(d time.Duration) { b.callerLoop(alone, d, ".serial", true, false, lr, tr) }},
			{share: 0.1, slice: slice, run: func(d time.Duration) {
				together(applyPair, lr, func(c *caller, _ int, part *loopResult) { b.applyLoop(c, d, "apply_us", part, tr) })
			}},
			{share: 0.05, slice: slice, run: func(d time.Duration) { b.applyLoop(alone, d, "apply_us.serial", lr, tr) }},
		}
	}
	phases = append(phases, &phase{share: 0.1, slice: slice, run: func(d time.Duration) { b.setupLoop(d, lr, tr) }})
	interleave(budget, phases)
	lr.wall = phases[0].spent
	b.sampleHeap()
	return lr
}
