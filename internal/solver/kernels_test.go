package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The production LU and pricing kernels (fused two-RHS btran, pivot-indexed
// L, bounded factorize scan, row-wise priceCol) promise bit-identical
// results to the straightforward kernels they replaced — that is what keeps
// the branch-and-bound pivot path, and so every node and pivot count,
// unchanged. The straightforward kernels live on below as oracles, and the
// tests compare under math.Float64bits, so a reordered sum fails them even
// when the difference is one ulp.

// factorizeFullScan is the oracle factorization: the left-looking loop
// scans every earlier pivot position instead of starting at the column's
// earliest pivoted row. Besides leaving the factor exactly as factorize
// does, it returns L's row indices in original-row space (lRow), the form
// the oracle solves below index through pinv.
func (f *luFactor) factorizeFullScan(basis []int32, csc *cscMatrix, x []float64) (lRow []int32, ok bool) {
	m := csc.rows
	f.m = m
	f.perm = growInt32(f.perm, m)
	f.pinv = growInt32(f.pinv, m)
	f.udiag = growFloats(f.udiag, m)
	f.lPtr = growInt32(f.lPtr, m+1)
	f.uPtr = growInt32(f.uPtr, m+1)
	f.lPos, f.lVal = f.lPos[:0], f.lVal[:0]
	f.uIdx, f.uVal = f.uIdx[:0], f.uVal[:0]
	f.etaPos = f.etaPos[:0]
	f.etaIdx, f.etaVal = f.etaIdx[:0], f.etaVal[:0]
	f.etaPtr = append(f.etaPtr[:0], 0)
	f.mark = growBools(f.mark, m)
	for r := 0; r < m; r++ {
		f.pinv[r] = -1
		f.mark[r] = false
	}
	f.lPtr[0], f.uPtr[0] = 0, 0
	var touch []int32
	for j := 0; j < m; j++ {
		touch = touch[:0]
		col := basis[j]
		if int(col) >= csc.cols {
			r := col - int32(csc.cols)
			x[r] = 1
			f.mark[r] = true
			touch = append(touch, r)
		} else {
			for k := csc.colPtr[col]; k < csc.colPtr[col+1]; k++ {
				r := csc.rowIdx[k]
				x[r] = csc.val[k]
				f.mark[r] = true
				touch = append(touch, r)
			}
		}
		for k := 0; k < j; k++ {
			xk := x[f.perm[k]]
			if xk == 0 {
				continue
			}
			f.uIdx = append(f.uIdx, int32(k))
			f.uVal = append(f.uVal, xk)
			for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
				i := f.lPos[t]
				if !f.mark[i] {
					f.mark[i] = true
					touch = append(touch, i)
				}
				x[i] -= xk * f.lVal[t]
			}
		}
		f.uPtr[j+1] = int32(len(f.uIdx))
		piv, pivAbs := int32(-1), luSingTol
		for _, i := range touch {
			if f.pinv[i] < 0 {
				if a := math.Abs(x[i]); a > pivAbs {
					pivAbs, piv = a, i
				}
			}
		}
		if piv < 0 {
			for _, i := range touch {
				x[i] = 0
				f.mark[i] = false
			}
			return nil, false
		}
		f.perm[j] = piv
		f.pinv[piv] = int32(j)
		d := x[piv]
		f.udiag[j] = d
		for _, i := range touch {
			if f.pinv[i] < 0 && x[i] != 0 {
				f.lPos = append(f.lPos, i)
				f.lVal = append(f.lVal, x[i]/d)
			}
			x[i] = 0
			f.mark[i] = false
		}
		f.lPtr[j+1] = int32(len(f.lPos))
	}
	lRow = append([]int32(nil), f.lPos...)
	for t, i := range f.lPos {
		f.lPos[t] = f.pinv[i]
	}
	f.nFactor++
	f.loadFT()
	return lRow, true
}

// btranOracle is the single-right-hand-side BTRAN: Bᵀ·out = c through U,
// the row etas and L one vector at a time, with the Lᵀ gather going
// through pinv of L's original-row indices lRow. c is position space and
// is zeroed on return.
func (f *luFactor) btranOracle(lRow []int32, c, out []float64) {
	for t := 0; t < f.m; t++ {
		j := int(f.order[t])
		s := c[j]
		ci, cv := f.us.entries(j)
		for q, k := range ci {
			s -= cv[q] * c[k]
		}
		c[j] = s / f.udiag[j]
	}
	for e := len(f.etaPos) - 1; e >= 0; e-- {
		cp := c[f.etaPos[e]]
		if cp != 0 {
			for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
				c[f.etaIdx[t]] -= f.etaVal[t] * cp
			}
		}
	}
	for k := f.m - 1; k >= 0; k-- {
		s := c[k]
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			s -= f.lVal[t] * c[f.pinv[lRow[t]]]
		}
		c[k] = s
	}
	for k := 0; k < f.m; k++ {
		out[f.perm[k]] = c[k]
		c[k] = 0
	}
}

// ftranOracle is FTRAN with the L solve run in place in original-row
// space, before the gather to pivot order. x is zeroed on return.
func (f *luFactor) ftranOracle(lRow []int32, x, out []float64) {
	for k := 0; k < f.m; k++ {
		xk := x[f.perm[k]]
		if xk != 0 {
			for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
				x[lRow[t]] -= xk * f.lVal[t]
			}
		}
	}
	for k := 0; k < f.m; k++ {
		out[k] = x[f.perm[k]]
		x[f.perm[k]] = 0
	}
	for e := 0; e < len(f.etaPos); e++ {
		dot := 0.0
		for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
			dot += f.etaVal[t] * out[f.etaIdx[t]]
		}
		out[f.etaPos[e]] -= dot
	}
	for t := f.m - 1; t >= 0; t-- {
		j := int(f.order[t])
		v := out[j] / f.udiag[j]
		out[j] = v
		if v != 0 {
			ci, cv := f.us.entries(j)
			for q, k := range ci {
				out[k] -= v * cv[q]
			}
		}
	}
}

// priceColOracle is column-wise pricing: α_j = ρ·a_j and d_j = c_j − y·a_j
// as dot products down column j of the CSC matrix.
func (rx *rxScratch) priceColOracle(j int) (alpha, d float64) {
	if j >= rx.nCols {
		r := j - rx.nCols
		return rx.rho[r], rx.cost[j] - rx.y[r]
	}
	var yd float64
	for k := rx.csc.colPtr[j]; k < rx.csc.colPtr[j+1]; k++ {
		r := rx.csc.rowIdx[k]
		alpha += rx.csc.val[k] * rx.rho[r]
		yd += rx.csc.val[k] * rx.y[r]
	}
	return alpha, rx.cost[j] - yd
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameFactor reports the first factor field on which f and g differ
// (bitwise for values), or "" when perm, L, U and udiag all agree.
func sameFactor(f, g *luFactor) string {
	m := f.m
	switch {
	case !sameInt32(f.perm[:m], g.perm[:m]):
		return "perm"
	case !sameInt32(f.lPtr[:m+1], g.lPtr[:m+1]) || !sameInt32(f.lPos, g.lPos) || !sameBits(f.lVal, g.lVal):
		return "L"
	case !sameInt32(f.uPtr[:m+1], g.uPtr[:m+1]) || !sameInt32(f.uIdx, g.uIdx) || !sameBits(f.uVal, g.uVal):
		return "U"
	case !sameBits(f.udiag[:m], g.udiag[:m]):
		return "udiag"
	}
	return ""
}

// mostlySlackBasis returns a nonsingular basis in which about frac of the
// positions hold structural columns and the rest keep their row's slack.
// It starts from the all-slack basis and swaps structural columns in one at
// a time, each over a slack position where its B⁻¹a_j entry is well away
// from zero, so every intermediate basis stays nonsingular.
func mostlySlackBasis(rng *rand.Rand, csc *cscMatrix, frac float64) []int32 {
	n := csc.rows
	basis := make([]int32, n)
	inBasis := map[int32]bool{}
	for r := range basis {
		basis[r] = int32(csc.cols + r)
	}
	x := make([]float64, n)
	w := make([]float64, n)
	var f luFactor
	var slackPos []int
	for swaps := int(frac * float64(n)); swaps > 0; {
		if _, ok := f.factorizeFullScan(basis, csc, x); !ok {
			panic("mostlySlackBasis: basis became singular")
		}
		j := int32(rng.Intn(csc.cols))
		if inBasis[j] {
			continue
		}
		scatterBasisCol(csc, j, x)
		f.ftran(x, w)
		slackPos = slackPos[:0]
		for p, b := range basis {
			if int(b) >= csc.cols && math.Abs(w[p]) > 1e-2 {
				slackPos = append(slackPos, p)
			}
		}
		if len(slackPos) == 0 {
			continue
		}
		basis[slackPos[rng.Intn(len(slackPos))]] = j
		inBasis[j] = true
		swaps--
	}
	return basis
}

// TestFactorizeBoundedScanMatchesFullScan: on random mostly-slack bases
// (the T-backbone's optimal bases keep ~86% slacks), the bounded-start
// factorize yields the full scan's perm, L, U and udiag bit for bit, and
// fails on exactly the same singular bases.
func TestFactorizeBoundedScanMatchesFullScan(t *testing.T) {
	factored := 0
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(7100 + int64(trial)))
		nRows := 30 + rng.Intn(50)
		m := randomFactorModel(t, rng, nRows, 2*nRows, 0.06)
		csc := m.cscMatrixOf()
		basis := mostlySlackBasis(rng, csc, 0.1+0.3*rng.Float64())
		x := make([]float64, csc.rows)
		var f, g luFactor
		ok := f.factorize(basis, csc, x)
		_, okOracle := g.factorizeFullScan(basis, csc, x)
		if ok != okOracle {
			t.Fatalf("trial %d: factorize ok=%v, full scan ok=%v", trial, ok, okOracle)
		}
		if !ok {
			continue
		}
		factored++
		if field := sameFactor(&f, &g); field != "" {
			t.Fatalf("trial %d: bounded-scan factorize differs from the full scan in %s", trial, field)
		}
	}
	if factored < 100 {
		t.Fatalf("only %d of 200 random bases factorized; the test exercises too little", factored)
	}
}

// ftChain drives a production factor through a chain of random
// Forrest–Tomlin updates from a mostly-slack basis, refactorizing (with
// the bounded scan) when production would, and calls check after every
// step with L's original-row indices from an oracle factorization of the
// same basis. It returns the number of steps that ran with row etas live.
func ftChain(t *testing.T, rng *rand.Rand, f *luFactor, basis []int32, csc *cscMatrix, steps int, onPivot func(), check func(lRow []int32)) int {
	t.Helper()
	x := make([]float64, csc.rows)
	w := make([]float64, csc.rows)
	var oracle luFactor
	refactor := func() []int32 {
		if !f.factorize(basis, csc, x) {
			t.Fatalf("factorization failed on a nonsingular basis")
		}
		lRow, ok := oracle.factorizeFullScan(basis, csc, x)
		if !ok {
			t.Fatalf("oracle factorization failed where production succeeded")
		}
		if field := sameFactor(f, &oracle); field != "" {
			t.Fatalf("refactorization differs from the full scan in %s", field)
		}
		return lRow
	}
	lRow := refactor()
	inBasis := map[int32]bool{}
	for _, b := range basis {
		inBasis[b] = true
	}
	withEtas := 0
	for done, attempt := 0, 0; done < steps && attempt < 20*steps; attempt++ {
		enter := int32(rng.Intn(csc.cols + csc.rows))
		if inBasis[enter] {
			continue
		}
		scatterBasisCol(csc, enter, x)
		f.ftran(x, w)
		p := rng.Intn(csc.rows)
		if math.Abs(w[p]) < 1e-2 {
			continue
		}
		delete(inBasis, basis[p])
		inBasis[enter] = true
		basis[p] = enter
		if onPivot != nil {
			onPivot()
		}
		if f.needRefactor() || !f.ftUpdate(p, w[p]) {
			lRow = refactor()
		}
		if len(f.etaPos) > 0 {
			withEtas++
		}
		check(lRow)
		done++
	}
	return withEtas
}

// TestFusedBTRANMatchesTwoSingleSolves: after every Forrest–Tomlin update
// of a random chain, the fused btran's ρ = B⁻ᵀe_p and y = B⁻ᵀc equal two
// calls of the single-RHS oracle bit for bit, the y-only mode equals one
// call, and FTRAN through the pivot-indexed L equals the original-row
// L solve.
func TestFusedBTRANMatchesTwoSingleSolves(t *testing.T) {
	withEtas := 0
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(7300 + int64(trial)))
		nRows := 40 + rng.Intn(40)
		m := randomFactorModel(t, rng, nRows, 2*nRows, 0.06)
		csc := m.cscMatrixOf()
		n := csc.rows
		basis := mostlySlackBasis(rng, csc, 0.15)
		c := make([]float64, n)
		c1 := make([]float64, n)
		e := make([]float64, n)
		y, rho := make([]float64, n), make([]float64, n)
		yO, rhoO := make([]float64, n), make([]float64, n)
		a, aO := make([]float64, n), make([]float64, n)
		w, wO := make([]float64, n), make([]float64, n)
		var f luFactor
		label := fmt.Sprintf("trial %d", trial)
		withEtas += ftChain(t, rng, &f, basis, csc, 60, nil, func(lRow []int32) {
			p := rng.Intn(n)
			for i := range c {
				if rng.Float64() < 0.5 {
					c[i] = rng.NormFloat64()
				}
			}
			copy(c1, c)
			f.btran(c1, y, p, rho)
			copy(c1, c)
			f.btranOracle(lRow, c1, yO)
			e[p] = 1
			f.btranOracle(lRow, e, rhoO)
			if !sameBits(y, yO) || !sameBits(rho, rhoO) {
				t.Fatalf("%s: fused btran differs from two single-RHS solves", label)
			}
			copy(c1, c)
			f.btran(c1, y, -1, nil)
			if !sameBits(y, yO) {
				t.Fatalf("%s: y-only btran differs from the single-RHS solve", label)
			}
			for i := range a {
				a[i] = 0
				if rng.Float64() < 0.2 {
					a[i] = rng.NormFloat64()
				}
			}
			copy(aO, a)
			f.ftran(a, w)
			f.ftranOracle(lRow, aO, wO)
			if !sameBits(w, wO) {
				t.Fatalf("%s: ftran differs from the original-row L solve", label)
			}
			for i := range c {
				c[i] = 0
			}
		})
	}
	if withEtas < 200 {
		t.Fatalf("only %d checks ran with row etas live; the chains exercise too little", withEtas)
	}
}

// TestRowWisePricingMatchesColumnWise: with ρ and y from the fused btran
// on bases reached through Forrest–Tomlin chains, the row-wise priceCol
// gives every nonbasic column the α_j and d_j of the column-wise oracle bit
// for bit, and its y-only mode gives the same d_j.
func TestRowWisePricingMatchesColumnWise(t *testing.T) {
	checked := 0
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(7500 + int64(trial)))
		nRows := 40 + rng.Intn(40)
		m := randomFactorModel(t, rng, nRows, 2*nRows, 0.06)
		rx := newRxScratch(m)
		for j := range rx.cost {
			rx.cost[j] = 0
			if j < rx.nCols && rng.Float64() < 0.7 {
				rx.cost[j] = rng.NormFloat64()
			}
		}
		basis := mostlySlackBasis(rng, rx.csc, 0.15)
		copy(rx.basis, basis)
		setStatus := func() {
			for j := range rx.status {
				rx.status[j] = rxAtLower
			}
			for _, b := range rx.basis {
				rx.status[b] = rxBasic
			}
		}
		setStatus()
		label := fmt.Sprintf("trial %d", trial)
		ftChain(t, rng, &rx.lu, rx.basis, rx.csc, 40, setStatus, func([]int32) {
			p := rng.Intn(rx.nRows)
			for r := 0; r < rx.nRows; r++ {
				rx.posBuf[r] = rx.cost[rx.basis[r]]
			}
			rx.lu.btran(rx.posBuf, rx.y, p, rx.rho)
			rx.priceCol(true)
			for j := 0; j < rx.nTot; j++ {
				if rx.status[j] == rxBasic {
					continue
				}
				alpha, d := rx.priced(j)
				alphaO, dO := rx.priceColOracle(j)
				if math.Float64bits(alpha) != math.Float64bits(alphaO) || math.Float64bits(d) != math.Float64bits(dO) {
					t.Fatalf("%s column %d: row-wise (α, d) = (%v, %v), column-wise (%v, %v)", label, j, alpha, d, alphaO, dO)
				}
				checked++
			}
			rx.priceCol(false)
			for j := 0; j < rx.nTot; j++ {
				if rx.status[j] == rxBasic {
					continue
				}
				if _, dO := rx.priceColOracle(j); math.Float64bits(rx.reducedCost(j)) != math.Float64bits(dO) {
					t.Fatalf("%s column %d: y-only reduced cost %v, column-wise %v", label, j, rx.reducedCost(j), dO)
				}
			}
		})
	}
	if checked < 10000 {
		t.Fatalf("only %d columns priced; the test exercises too little", checked)
	}
}
