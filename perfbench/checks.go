package main

import (
	"context"
	"fmt"
	"sync"

	"javelin"
)

// The determinism gates check what the repository's contract
// promises, on the workload's own stacks:
//
//   - Krylov reductions are blocked and ordered, so a solve gives the
//     same x, bit for bit, and the same iteration count whether the
//     Solver runs at 1 thread or at nproc threads over one
//     preconditioner and one matrix generation;
//   - Appliers share the factor read-only, so nproc Appliers applying
//     at once give the single caller's z bit for bit;
//   - a staged (Threads >= 2) factorization traverses the same stages
//     at any width, so it applies bit for bit like one built at twice
//     the width. A 1-thread factorization runs plain substitution,
//     whose lower-stage sums associate differently by design, so the
//     1-thread stacks are checked by residual only.

// gateSolveThreads solves rhs on sys and on a second Solver over the
// same preconditioner and matrix at the other thread count, and
// requires identical bits and iteration counts.
func (b *bench) gateSolveThreads(sys *system, rhs []float64) {
	alt := b.nproc
	if sys.threads > 1 {
		alt = 1
	}
	opts := []javelin.SolverOption{javelin.WithMethod(b.method), javelin.WithTol(tol), javelin.WithThreads(alt)}
	if alt > 1 {
		opts = append(opts, javelin.WithRuntime(javelin.DefaultRuntime()))
	}
	var other *javelin.Solver
	var err error
	if sys.vm != nil {
		other, err = javelin.NewVersionedSolver(sys.vm, sys.p, opts...)
	} else {
		other, err = javelin.NewSolver(sys.m, sys.p, opts...)
	}
	if err != nil {
		b.g.check(fmt.Errorf("thread gate: %w", err))
		return
	}
	defer other.Close()
	x1 := make([]float64, len(rhs))
	x2 := make([]float64, len(rhs))
	st1, err1 := sys.s.Solve(context.Background(), rhs, x1)
	st2, err2 := other.Solve(context.Background(), rhs, x2)
	if b.cfg.corrupt != nil {
		b.cfg.corrupt(x1)
	}
	b.g.check(checkSolve(sys.m, sys.valsFor(st1.MatrixEpoch), st1, err1, rhs, x1))
	b.g.check(checkSolve(sys.m, sys.valsFor(st2.MatrixEpoch), st2, err2, rhs, x2))
	switch {
	case st1.Iterations != st2.Iterations:
		b.g.check(fmt.Errorf("thread gate: %d iterations at %d threads, %d at %d", st1.Iterations, sys.threads, st2.Iterations, alt))
	case sameBits(x1, x2) >= 0:
		b.g.check(fmt.Errorf("thread gate: x differs at entry %d between %d and %d Krylov threads", sameBits(x1, x2), sys.threads, alt))
	default:
		b.g.check(nil)
	}
}

// gateAppliers applies r from nproc Appliers at once and compares
// each result with a single caller's.
func (b *bench) gateAppliers(sys *system, r []float64) {
	want := make([]float64, len(r))
	sys.p.NewApplier().Apply(r, want)
	got := make([][]float64, b.nproc)
	var wg sync.WaitGroup
	for c := range got {
		got[c] = make([]float64, len(r))
		wg.Add(1)
		go func(z []float64) {
			defer wg.Done()
			a := sys.p.NewApplier()
			for i := 0; i < 3; i++ {
				a.Apply(r, z)
			}
		}(got[c])
	}
	wg.Wait()
	for c, z := range got {
		if i := sameBits(want, z); i >= 0 {
			b.g.check(fmt.Errorf("applier gate: concurrent caller %d differs at entry %d", c, i))
			return
		}
	}
	b.g.check(nil)
}

// gateWidth factorizes sys's current matrix at twice its thread count
// with the same lower method and requires the same Apply bits.
func (b *bench) gateWidth(sys *system, r []float64) {
	if sys.threads < 2 {
		return
	}
	opt := javelin.DefaultOptions()
	opt.Threads = 2 * sys.threads
	opt.Lower = sys.p.Method()
	m := sys.m
	if sys.vm != nil {
		m = sys.vm.Matrix()
	}
	wide, err := javelin.Factorize(m, opt)
	if err != nil {
		b.g.check(fmt.Errorf("width gate: %w", err))
		return
	}
	defer wide.Close()
	want := make([]float64, len(r))
	got := make([]float64, len(r))
	sys.p.NewApplier().Apply(r, want)
	wide.NewApplier().Apply(r, got)
	if i := sameBits(want, got); i >= 0 {
		b.g.check(fmt.Errorf("width gate: %d-thread and %d-thread factorizations apply differently at entry %d",
			sys.threads, opt.Threads, i))
		return
	}
	b.g.check(nil)
}

// gates runs every determinism gate on the workload's main stack.
func (b *bench) gates(withWidth bool) {
	b.gateSolveThreads(b.main, b.rhs[0])
	b.gateAppliers(b.main, b.rhs[1])
	if withWidth {
		b.gateWidth(b.main, b.rhs[1])
	}
}
