package baseline

import (
	"errors"
	"math"
	"sync/atomic"

	"javelin/internal/exec"
	"javelin/internal/ilu"
	"javelin/internal/sparse"
)

// ChowPatelOptions configures the fine-grained iterative ILU of
// Chow & Patel (paper reference [3]): the factorization is posed as
// the fixed-point system l_ij·u_jj + Σ l_ik u_kj = a_ij and solved by
// asynchronous sweeps over the nonzeros. It parallelizes trivially
// but — as the paper notes — "may result in an incomplete
// factorization that is nondeterministic and that challenges
// traditional dropping" (no τ/MILU support here, matching that
// observation).
type ChowPatelOptions struct {
	Sweeps  int // fixed-point sweeps; 0 means 5 (Chow–Patel's typical 3–5)
	Threads int
}

// ChowPatel computes an ILU(0)-pattern factorization by fixed-point
// sweeps. The result is approximate: each extra sweep tightens it
// toward the exact ILU(0) factors.
func ChowPatel(a *sparse.CSR, opt ChowPatelOptions) (*ilu.Factor, error) {
	if a.N != a.M {
		return nil, errors.New("baseline: matrix must be square")
	}
	if opt.Sweeps <= 0 {
		opt.Sweeps = 5
	}
	if opt.Threads <= 0 {
		opt.Threads = 1
	}
	n := a.N
	pat, err := ilu.SymbolicPattern(a, 0)
	if err != nil {
		return nil, err
	}
	lu := pat.Clone()
	diagPos := make([]int, n)
	aVal := make([]float64, lu.Nnz()) // a_ij aligned with the pattern
	for i := 0; i < n; i++ {
		dp := -1
		base := lu.RowPtr[i]
		lcols := lu.ColIdx[base:lu.RowPtr[i+1]]
		acols, avals := a.Row(i)
		ai := 0
		for k, j := range lcols {
			if j == i {
				dp = base + k
			}
			for ai < len(acols) && acols[ai] < j {
				ai++
			}
			if ai < len(acols) && acols[ai] == j {
				aVal[base+k] = avals[ai]
			}
		}
		if dp < 0 {
			return nil, errors.New("baseline: ChowPatel needs a full diagonal")
		}
		diagPos[i] = dp
	}
	// Initial guess: L = strictly-lower(A) scaled by diag, U = upper(A).
	for i := 0; i < n; i++ {
		d := aVal[diagPos[i]]
		if d == 0 {
			d = 1
		}
		for k := lu.RowPtr[i]; k < lu.RowPtr[i+1]; k++ {
			if lu.ColIdx[k] < i {
				lu.Val[k] = aVal[k] / d
			} else {
				lu.Val[k] = aVal[k]
			}
		}
	}
	f := &ilu.Factor{LU: lu, DiagPos: diagPos}

	// Sweeps: each entry update reads current (possibly stale) values
	// of other entries — the asynchronous model. Entries live in an
	// atomically-accessed word array during the sweeps: Chow–Patel
	// assumes word-atomic loads/stores of the hardware, which Go
	// requires to be spelled out (the races are intentional and
	// benign, but must be atomic to be defined behavior).
	work := make([]uint64, len(lu.Val))
	for k, v := range lu.Val {
		work[k] = math.Float64bits(v)
	}
	for s := 0; s < opt.Sweeps; s++ {
		if opt.Threads <= 1 {
			for i := 0; i < n; i++ {
				sweepRow(f, aVal, work, i)
			}
			continue
		}
		exec.Default().ForDynamic(n, opt.Threads, 64, func(i int) {
			sweepRow(f, aVal, work, i)
		})
	}
	for k := range lu.Val {
		lu.Val[k] = math.Float64frombits(work[k])
	}
	// Guard: a zero diagonal anywhere makes the factor unusable.
	for i := 0; i < n; i++ {
		if math.Abs(lu.Val[diagPos[i]]) < 1e-300 {
			lu.Val[diagPos[i]] = 1e-300
		}
	}
	return f, nil
}

func loadVal(work []uint64, k int) float64 {
	return math.Float64frombits(atomic.LoadUint64(&work[k]))
}

// sweepRow updates every entry of row i from the fixed-point
// equations using a sorted merge against the producing rows.
func sweepRow(f *ilu.Factor, aVal []float64, work []uint64, i int) {
	lu := f.LU
	lo, hi := lu.RowPtr[i], lu.RowPtr[i+1]
	for k := lo; k < hi; k++ {
		j := lu.ColIdx[k]
		// s = Σ_{t < min(i,j)} l_it·u_tj over the pattern.
		s := 0.0
		limit := i
		if j < limit {
			limit = j
		}
		// Walk row i's L entries (cols < limit) and probe column j in
		// each producing row t via binary search in row t.
		for kt := lo; kt < hi; kt++ {
			t := lu.ColIdx[kt]
			if t >= limit {
				break
			}
			tRow := lu.ColIdx[lu.RowPtr[t]:lu.RowPtr[t+1]]
			p := searchInts(tRow, j)
			if p >= 0 {
				s += loadVal(work, kt) * loadVal(work, lu.RowPtr[t]+p)
			}
		}
		var v float64
		if j < i {
			ujj := loadVal(work, f.DiagPos[j])
			if ujj == 0 {
				continue
			}
			v = (aVal[k] - s) / ujj
		} else {
			v = aVal[k] - s
		}
		atomic.StoreUint64(&work[k], math.Float64bits(v))
	}
}

func searchInts(xs []int, v int) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(xs) && xs[lo] == v {
		return lo
	}
	return -1
}
