package markov_test

// Known-answer linear-algebra checks of the chain solver: each system is
// posed as an absorbing chain and solved by the sparse LU through the
// public API. Bitwise agreement with the dense kernel is checked
// separately by the parity test and fuzz target.

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/markov"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestSolveKnownSystem(t *testing.T) {
	// a: 0.5 self-loop, 0.5 to b; b: 0.25 back to a, 0.5 ok, 0.25 bad.
	// v_a = 1 + v_a/2 + v_b/4 and v_b = v_a/2, so v_a = 8/3, v_b = 4/3.
	c := markov.New()
	a, b := c.AddState("a", 1), c.AddState("b", 2)
	ok, bad := c.AddAbsorbing("ok"), c.AddAbsorbing("bad")
	c.Transition(a, a, 0.5)
	c.Transition(a, b, 0.5)
	c.Transition(b, a, 0.25)
	c.Transition(b, ok, 0.5)
	c.Transition(b, bad, 0.25)
	c.SetStart(a)
	r, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r.ExpectedVisits[a], 8.0/3, 1e-12) || !almostEq(r.ExpectedVisits[b], 4.0/3, 1e-12) {
		t.Fatalf("visits = %v, want [8/3 4/3]", r.ExpectedVisits[:2])
	}
	if !almostEq(r.ExpectedTime, 16.0/3, 1e-12) {
		t.Fatalf("expected time = %v, want 16/3", r.ExpectedTime)
	}
	if !almostEq(r.Absorption[ok], 2.0/3, 1e-12) || !almostEq(r.Absorption[bad], 1.0/3, 1e-12) {
		t.Fatalf("absorption ok/bad = %v/%v, want 2/3 1/3", r.Absorption[ok], r.Absorption[bad])
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// a moves to b with total mass 1+1e-10 over two edges, inside Analyze's
	// 1e-9 tolerance, so column a of (I − Q)ᵀ is [1, −(1+1e-10)]: the
	// off-diagonal entry is the larger and partial pivoting swaps the rows.
	const eps = 1e-10
	c := markov.New()
	a, b := c.AddState("a", 1), c.AddState("b", 1)
	ok, bad := c.AddAbsorbing("ok"), c.AddAbsorbing("bad")
	c.Transition(a, b, 0.5)
	c.Transition(a, b, 0.5+eps)
	c.Transition(b, ok, 0.5)
	c.Transition(b, bad, 0.5)
	c.SetStart(a)
	r, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r.ExpectedVisits[a], 1, 1e-12) || !almostEq(r.ExpectedVisits[b], 1+eps, 1e-12) {
		t.Fatalf("visits = %v, want [1 1+1e-10]", r.ExpectedVisits[:2])
	}
	if !almostEq(r.Absorption[ok], 0.5*(1+eps), 1e-12) || !almostEq(r.Absorption[bad], 0.5*(1+eps), 1e-12) {
		t.Fatalf("absorption ok/bad = %v/%v, want 0.5(1+1e-10) each", r.Absorption[ok], r.Absorption[bad])
	}
}

func TestFactorizeSingular(t *testing.T) {
	// A closed transient cycle never reaches the absorbing state, so
	// (I − Q)ᵀ is singular.
	c := markov.New()
	a, b := c.AddState("a", 1), c.AddState("b", 1)
	end := c.AddState("end-feeder", 1)
	done := c.AddAbsorbing("done")
	c.Transition(a, b, 1)
	c.Transition(b, a, 1)
	c.Transition(end, done, 1)
	c.SetStart(a)
	_, err := c.Analyze()
	if err == nil || !strings.Contains(err.Error(), "singular") {
		t.Fatalf("Analyze error = %v, want a singular-matrix error", err)
	}
}

func TestInverseKnown(t *testing.T) {
	// Q = [[0.4 0.2] [0.4 0.2]], so I − Q = [[0.6 −0.2] [−0.4 0.8]] and the
	// fundamental matrix N = (I − Q)⁻¹ = [[2 0.5] [1 1.5]]. Each start state
	// yields its row of N as the expected visits.
	c := markov.New()
	s0, s1 := c.AddState("s0", 1), c.AddState("s1", 1)
	done := c.AddAbsorbing("done")
	for _, s := range []int{s0, s1} {
		c.Transition(s, s0, 0.4)
		c.Transition(s, s1, 0.2)
		c.Transition(s, done, 0.4)
	}
	want := [][]float64{{2, 0.5}, {1, 1.5}}
	for i, start := range []int{s0, s1} {
		c.SetStart(start)
		r, err := c.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		for j, s := range []int{s0, s1} {
			if !almostEq(r.ExpectedVisits[s], want[i][j], 1e-12) {
				t.Fatalf("N(%d,%d) = %v, want %v", i, j, r.ExpectedVisits[s], want[i][j])
			}
		}
		if !almostEq(r.Absorption[done], 1, 1e-12) {
			t.Fatalf("absorption from s%d = %v, want 1", i, r.Absorption[done])
		}
	}
}

func TestPropertySolveResidual(t *testing.T) {
	// Random absorbing chains: the solved visits must satisfy the balance
	// equations v_j = δ(start, j) + Σ_i v_i·Q[i][j], and the absorption
	// probabilities must sum to 1.
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		rng := rand.New(rand.NewSource(seed))
		c := markov.New()
		trans := make([]int, n)
		for i := range trans {
			trans[i] = c.AddStateIdx("t", i, rng.Float64()*5)
		}
		ok, bad := c.AddAbsorbing("ok"), c.AddAbsorbing("bad")
		q := make([][]float64, n)
		for i := range q {
			q[i] = make([]float64, n)
			w := make([]float64, 4)
			sum := 0.0
			for k := range w {
				w[k] = 0.1 + rng.Float64()
				sum += w[k]
			}
			j0, j1 := rng.Intn(n), rng.Intn(n)
			c.Transition(trans[i], trans[j0], w[0]/sum)
			c.Transition(trans[i], trans[j1], w[1]/sum)
			c.Transition(trans[i], ok, w[2]/sum)
			c.Transition(trans[i], bad, w[3]/sum)
			q[i][j0] += w[0] / sum
			q[i][j1] += w[1] / sum
		}
		start := rng.Intn(n)
		c.SetStart(trans[start])
		r, err := c.Analyze()
		if err != nil {
			return false
		}
		for j := 0; j < n; j++ {
			rhs := 0.0
			if j == start {
				rhs = 1
			}
			for i := 0; i < n; i++ {
				rhs += r.ExpectedVisits[trans[i]] * q[i][j]
			}
			if !almostEq(r.ExpectedVisits[trans[j]], rhs, 1e-9) {
				return false
			}
		}
		return almostEq(r.Absorption[ok]+r.Absorption[bad], 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
