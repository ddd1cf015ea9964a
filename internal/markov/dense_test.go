package markov

import (
	"fmt"
	"math"
)

// This file keeps the dense analysis the sparse kernel replaced — dense
// (I − Q)ᵀ and R assembly, LU with partial pivoting, substitution and the
// full-width sums of the old collect — as the parity oracle for the sparse
// kernel. It is exported to the external test package through AnalyzeDense.

// AnalyzeDense analyzes c with the dense reference kernel.
func AnalyzeDense(c *Chain) (*Result, error) {
	if !c.hasStart {
		return nil, fmt.Errorf("markov: no start state set")
	}
	ns := len(c.names)
	res := &Result{ExpectedVisits: make([]float64, ns), Absorption: make([]float64, ns)}
	if c.absorbing[c.start] {
		res.Absorption[c.start] = 1
		return res, nil
	}
	var transient, absorbing []int
	tIndex, aIndex := make([]int, ns), make([]int, ns)
	for s := 0; s < ns; s++ {
		if c.absorbing[s] {
			aIndex[s] = len(absorbing)
			absorbing = append(absorbing, s)
		} else {
			tIndex[s] = len(transient)
			transient = append(transient, s)
		}
	}
	if len(absorbing) == 0 {
		return nil, fmt.Errorf("markov: chain has no absorbing state")
	}
	for _, s := range transient {
		if sum := c.outMass(s); math.Abs(sum-1) > 1e-9 {
			return nil, fmt.Errorf("markov: state %q has outgoing probability %v, want 1", c.names[s], sum)
		}
	}
	nT, nA := len(transient), len(absorbing)
	rd := make([]float64, nT*nA)
	a := make([]float64, nT*nT)
	for i := 0; i < nT; i++ {
		a[i*nT+i] = 1
	}
	for _, s := range transient {
		i := tIndex[s]
		for e := c.head[s]; e >= 0; e = c.earena[e].next {
			to, prob := int(c.earena[e].to), c.earena[e].prob
			if c.absorbing[to] {
				rd[i*nA+aIndex[to]] += prob
			} else {
				a[tIndex[to]*nT+i] += -prob
			}
		}
	}
	pivot, err := denseFactorize(a, nT)
	if err != nil {
		return nil, fmt.Errorf("markov: chain is not absorbing from every transient state: %w", err)
	}
	e := make([]float64, nT)
	e[tIndex[c.start]] = 1
	visits := make([]float64, nT)
	denseSolve(a, nT, pivot, visits, e)
	for _, s := range transient {
		v := visits[tIndex[s]]
		res.ExpectedVisits[s] = v
		res.ExpectedTime += v * c.residence[s]
	}
	for _, s := range absorbing {
		j := aIndex[s]
		p := 0.0
		for _, ts := range transient {
			p += visits[tIndex[ts]] * rd[tIndex[ts]*nA+j]
		}
		res.Absorption[s] = p
	}
	return res, nil
}

// denseFactorize factors the row-major n×n matrix data in place into packed
// unit-lower L and upper U with partial pivoting and returns the pivot
// vector.
func denseFactorize(data []float64, n int) ([]int, error) {
	pivot := make([]int, n)
	for i := range pivot {
		pivot[i] = i
	}
	for k := 0; k < n; k++ {
		p := k
		max := math.Abs(data[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(data[i*n+k]); a > max {
				max, p = a, i
			}
		}
		if max == 0 || math.IsNaN(max) {
			return nil, fmt.Errorf("singular matrix at pivot %d", k)
		}
		if p != k {
			rp, rk := data[p*n:(p+1)*n], data[k*n:(k+1)*n]
			for j := range rp {
				rp[j], rk[j] = rk[j], rp[j]
			}
			pivot[p], pivot[k] = pivot[k], pivot[p]
		}
		rk := data[k*n : (k+1)*n]
		inv := 1 / rk[k]
		for i := k + 1; i < n; i++ {
			ri := data[i*n : (i+1)*n]
			f := ri[k] * inv
			ri[k] = f
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				ri[j] -= f * rk[j]
			}
		}
	}
	return pivot, nil
}

// denseSolve solves A·x = b with denseFactorize's factors.
func denseSolve(data []float64, n int, pivot []int, x, b []float64) {
	for i := 0; i < n; i++ {
		x[i] = b[pivot[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		for j, v := range data[i*n : i*n+i] {
			s -= v * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		ri := data[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
}

// PivotSwaps assembles and factors c with the sparse kernel and reports how
// many logical rows the pivoting moved, so tests can show that a chain
// exercises row swaps. It returns 0 for chains the kernel rejects.
func PivotSwaps(c *Chain) int {
	if !c.hasStart || c.absorbing[c.start] {
		return 0
	}
	sc := acquire()
	defer release(sc)
	if c.assemble(sc) != nil || sc.factor() != nil {
		return 0
	}
	moved := 0
	for i, r := range sc.sys.perm {
		if int(r) != i {
			moved++
		}
	}
	return moved
}
