package main

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"javelin"
)

// tol is the relative residual every solve must reach (the paper's
// Table II setting).
const tol = 1e-6

// residualSlack is how far above tol the benchmark's own residual may
// land. The solvers test convergence with blocked, thread-count
// independent reductions; the benchmark recomputes ‖b − A·x‖/‖b‖
// with a plain serial row-by-row CSR product, and CG stops on its
// recurrence residual, so the two figures differ in low digits.
const residualSlack = 1.5

// gate counts the operations the benchmark attempts and the ones
// that fail a correctness check. It is shared by concurrent callers.
type gate struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string // the first few failures, for the record line
}

// check records one attempted operation, failed unless err is nil.
func (g *gate) check(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if err == nil {
		return
	}
	g.failed++
	if len(g.reasons) < 8 {
		g.reasons = append(g.reasons, err.Error())
	}
}

func (g *gate) counts() (attempted, failed int, reasons []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.attempted, g.failed, append([]string(nil), g.reasons...)
}

// relResidual computes ‖b − A·x‖₂/‖b‖₂ for the matrix with a's
// pattern and the given values, with a serial CSR product of its own.
func relResidual(a *javelin.Matrix, vals, x, b []float64) float64 {
	c := a.Raw()
	var rr, bb float64
	for i := 0; i < c.N; i++ {
		s := b[i]
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			s -= vals[k] * x[c.ColIdx[k]]
		}
		rr += s * s
		bb += b[i] * b[i]
	}
	if bb == 0 {
		return math.Sqrt(rr)
	}
	return math.Sqrt(rr / bb)
}

// checkSolve verifies one solve: no error, converged, and the
// residual recomputed against vals — the exact matrix generation the
// solve pinned — within tol·residualSlack.
func checkSolve(a *javelin.Matrix, vals []float64, st javelin.SolverStats, err error, b, x []float64) error {
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	if !st.Converged {
		return errors.New("solve: not converged")
	}
	if vals == nil {
		return fmt.Errorf("solve pinned matrix generation %d, which the benchmark no longer holds", st.MatrixEpoch)
	}
	if rr := relResidual(a, vals, x, b); !(rr <= tol*residualSlack) {
		return fmt.Errorf("solve: recomputed relative residual %.3g exceeds %.3g (generation %d)",
			rr, tol*residualSlack, st.MatrixEpoch)
	}
	return nil
}

// sameBits reports the first index where x and y differ bitwise, or
// -1 when they are identical.
func sameBits(x, y []float64) int {
	if len(x) != len(y) {
		return 0
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return i
		}
	}
	return -1
}

// finite reports whether every entry of z is finite.
func finite(z []float64) bool {
	for _, v := range z {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
