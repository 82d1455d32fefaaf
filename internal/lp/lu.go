package lp

import (
	"errors"
	"math"
)

// luFactors is a sparse LU factorization of a basis matrix B, the kernel
// of the revised simplex. Columns of B are processed in a static
// fill-reducing order (fewest nonzeros first) with partial
// pivoting by magnitude, a left-looking Gilbert–Peierls-style scheme: the
// dense accumulator makes each column elimination a cheap scan over the
// pivots chosen so far, while L and U themselves stay sparse — LP-HTA
// bases have at most two nonzeros per column, so the factors are
// essentially as sparse as B.
//
// Indexing convention: "row space" means original constraint rows,
// "position space" means basis positions 0..m-1 (column p of B is the
// basis variable at position p), and "step space" means the order in
// which columns were pivoted. pivRow and colOrd translate between them.
type luFactors struct {
	m int

	// L is unit lower triangular in step order. Column k holds the
	// multipliers of pivot k at original row indices (strictly "below"
	// the diagonal in the permuted sense).
	lptr []int
	lrow []int // original row indices
	lval []float64

	// U column k holds entries u_{jk} for earlier steps j < k; the
	// diagonal is kept separately.
	uptr  []int
	urow  []int // step indices j < k
	uval  []float64
	udiag []float64

	pivRow []int // step k -> original row pivoted at k
	colOrd []int // step k -> basis position whose column was processed

	// scratch reused across solves (one luFactors is owned by one solve).
	rowScratch []float64 // row space
	stepFwd    []float64 // step space
}

// errSingularBasis reports a basis matrix the factorization could not
// pivot — for a simplex basis this means numerics have broken down.
var errSingularBasis = errors.New("lp: singular basis in LU factorization")

// luPivotEps is the smallest acceptable LU pivot magnitude. It is far
// below pivotEps: the simplex ratio test already keeps eta pivots above
// pivotEps, so anything smaller here means the basis degenerated
// numerically rather than a poor pivot choice.
const luPivotEps = 1e-11

// factorBasis computes the LU factors of the m×m basis whose column at
// position p is returned (sparsely, in row space) by col.
func factorBasis(m int, col func(p int) (rows []int, vals []float64)) (*luFactors, error) {
	f := &luFactors{
		m:      m,
		lptr:   make([]int, 1, m+1),
		uptr:   make([]int, 1, m+1),
		udiag:  make([]float64, m),
		pivRow: make([]int, m),
		colOrd: make([]int, m),

		rowScratch: make([]float64, m),
		stepFwd:    make([]float64, m),
	}

	// Static column order: fewest nonzeros first (an approximate
	// Markowitz choice that is exact for the unit and two-entry columns
	// dominating LP-HTA bases). Counting sort keeps this O(m + nnz).
	counts := make([]int, m)
	maxCount := 0
	for p := 0; p < m; p++ {
		rows, _ := col(p)
		counts[p] = len(rows)
		if len(rows) > maxCount {
			maxCount = len(rows)
		}
	}
	bucket := make([]int, maxCount+2)
	for _, c := range counts {
		bucket[c+1]++
	}
	for i := 1; i < len(bucket); i++ {
		bucket[i] += bucket[i-1]
	}
	for p := 0; p < m; p++ {
		f.colOrd[bucket[counts[p]]] = p
		bucket[counts[p]]++
	}

	x := make([]float64, m)       // dense accumulator, row space
	mark := make([]bool, m)       // which rows of x are live
	touched := make([]int, 0, 16) // rows to reset after each column
	hp := make([]int, 0, 16)      // min-heap of live pivot steps to eliminate
	pos := make([]int, m)         // original row -> pivot step, -1 if free
	for i := range pos {
		pos[i] = -1
	}

	// push/pop maintain hp as a binary min-heap so elimination steps are
	// processed in ascending pivot order without scanning all k earlier
	// steps per column.
	push := func(v int) {
		hp = append(hp, v)
		for i := len(hp) - 1; i > 0; {
			p := (i - 1) / 2
			if hp[p] <= hp[i] {
				break
			}
			hp[p], hp[i] = hp[i], hp[p]
			i = p
		}
	}
	pop := func() int {
		v := hp[0]
		last := len(hp) - 1
		hp[0] = hp[last]
		hp = hp[:last]
		for i := 0; ; {
			sm := i
			if l := 2*i + 1; l < len(hp) && hp[l] < hp[sm] {
				sm = l
			}
			if r := 2*i + 2; r < len(hp) && hp[r] < hp[sm] {
				sm = r
			}
			if sm == i {
				break
			}
			hp[i], hp[sm] = hp[sm], hp[i]
			i = sm
		}
		return v
	}

	for k := 0; k < m; k++ {
		rows, vals := col(f.colOrd[k])
		touched = touched[:0]
		for t, r := range rows {
			x[r] = vals[t]
			if !mark[r] {
				mark[r] = true
				touched = append(touched, r)
				if pos[r] >= 0 {
					push(pos[r])
				}
			}
		}

		// Left-looking elimination driven by a worklist: only steps whose
		// pivot row is live in x are visited, in ascending order. A row
		// filled by column j of L is necessarily pivoted after j (it was
		// unpivoted when step j ran), so pushed steps always exceed the one
		// being popped and each step is seen at most once.
		for len(hp) > 0 {
			j := pop()
			pr := f.pivRow[j]
			v := x[pr]
			if v == 0 {
				continue // exact cancellation; cleanup resets the mark
			}
			f.urow = append(f.urow, j)
			f.uval = append(f.uval, v)
			x[pr] = 0
			mark[pr] = false
			for t := f.lptr[j]; t < f.lptr[j+1]; t++ {
				r := f.lrow[t]
				if !mark[r] {
					mark[r] = true
					touched = append(touched, r)
					if pos[r] >= 0 {
						push(pos[r])
					}
				}
				x[r] -= f.lval[t] * v
			}
		}
		f.uptr = append(f.uptr, len(f.urow))

		// Partial pivoting among rows not yet assigned to a pivot.
		best, bestAbs := -1, luPivotEps
		for _, r := range touched {
			if !mark[r] || pos[r] >= 0 {
				continue
			}
			if a := math.Abs(x[r]); a > bestAbs {
				best, bestAbs = r, a
			}
		}
		if best < 0 {
			return nil, errSingularBasis
		}
		piv := x[best]
		f.udiag[k] = piv
		f.pivRow[k] = best
		pos[best] = k
		x[best] = 0
		mark[best] = false

		for _, r := range touched {
			if !mark[r] {
				continue
			}
			if v := x[r]; v != 0 && pos[r] < 0 {
				f.lrow = append(f.lrow, r)
				f.lval = append(f.lval, v/piv)
			}
			x[r] = 0
			mark[r] = false
		}
		f.lptr = append(f.lptr, len(f.lrow))
	}
	return f, nil
}

// ftran solves B w = v. The right-hand side is given sparsely in row
// space; the result is written densely into dst in position space
// (dst[p] multiplies the basis column at position p).
func (f *luFactors) ftran(dst []float64, rhsRows []int, rhsVals []float64) {
	x := f.rowScratch
	for i := range x {
		x[i] = 0
	}
	for t, r := range rhsRows {
		x[r] = rhsVals[t]
	}
	// Forward: L y = x in step order.
	y := f.stepFwd
	for k := 0; k < f.m; k++ {
		v := x[f.pivRow[k]]
		y[k] = v
		if v == 0 {
			continue
		}
		for t := f.lptr[k]; t < f.lptr[k+1]; t++ {
			x[f.lrow[t]] -= f.lval[t] * v
		}
	}
	// Backward: U z = y, z overwrites y.
	for k := f.m - 1; k >= 0; k-- {
		z := y[k] / f.udiag[k]
		y[k] = z
		if z == 0 {
			continue
		}
		for t := f.uptr[k]; t < f.uptr[k+1]; t++ {
			y[f.urow[t]] -= f.uval[t] * z
		}
	}
	for k := 0; k < f.m; k++ {
		dst[f.colOrd[k]] = y[k]
	}
}

// btran solves Bᵀ y = c. The right-hand side is dense in position space
// (c[p] is the cost of the basis variable at position p); the result is
// written densely into dst in row space.
func (f *luFactors) btran(dst []float64, c []float64) {
	// Forward: Uᵀ s = Qᵀc in step order (Uᵀ is lower triangular there).
	s := f.stepFwd
	for k := 0; k < f.m; k++ {
		acc := c[f.colOrd[k]]
		for t := f.uptr[k]; t < f.uptr[k+1]; t++ {
			acc -= f.uval[t] * s[f.urow[t]]
		}
		s[k] = acc / f.udiag[k]
	}
	// Backward: Lᵀ y = s. Column k of L touches only rows pivoted at
	// later steps, so descending k has every referenced value ready.
	for i := range dst {
		dst[i] = 0
	}
	for k := f.m - 1; k >= 0; k-- {
		acc := s[k]
		for t := f.lptr[k]; t < f.lptr[k+1]; t++ {
			acc -= f.lval[t] * dst[f.lrow[t]]
		}
		dst[f.pivRow[k]] = acc
	}
}
