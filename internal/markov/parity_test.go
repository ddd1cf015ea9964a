package markov_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/faultmodel"
	"repro/internal/markov"
	"repro/internal/relmodel"
	"repro/internal/tdse"
)

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkParity fails t unless got (the sparse kernel) matches want (the
// dense oracle) bitwise on expected time, visits and absorption, or both
// failed with the same error.
func checkParity(t *testing.T, label string, got *markov.Result, gotErr error, want *markov.Result, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: sparse error %v, dense error %v", label, gotErr, wantErr)
		}
		return
	}
	if math.Float64bits(got.ExpectedTime) != math.Float64bits(want.ExpectedTime) {
		t.Fatalf("%s: expected time %v, dense %v", label, got.ExpectedTime, want.ExpectedTime)
	}
	if !bitsEqual(got.ExpectedVisits, want.ExpectedVisits) {
		t.Fatalf("%s: visits %v, dense %v", label, got.ExpectedVisits, want.ExpectedVisits)
	}
	if !bitsEqual(got.Absorption, want.Absorption) {
		t.Fatalf("%s: absorption %v, dense %v", label, got.Absorption, want.Absorption)
	}
}

// checkChains compares Analyze and AnalyzePair on a and b with the dense
// oracle.
func checkChains(t *testing.T, label string, a, b *markov.Chain) {
	t.Helper()
	wantA, errA := markov.AnalyzeDense(a)
	wantB, errB := markov.AnalyzeDense(b)
	gotA, err := a.Analyze()
	checkParity(t, label+"/a", gotA, err, wantA, errA)
	gotB, err := b.Analyze()
	checkParity(t, label+"/b", gotB, err, wantB, errB)
	ra, rb := &markov.Result{}, &markov.Result{}
	if _, err := markov.AnalyzePair(a, b, ra, rb); err != nil {
		if errA == nil && errB == nil {
			t.Fatalf("%s: pair error %v, dense analyses succeeded", label, err)
		}
		return
	}
	checkParity(t, label+"/pair-a", ra, nil, wantA, errA)
	checkParity(t, label+"/pair-b", rb, nil, wantB, errB)
}

// chainParamsFor mirrors how relmodel.EvaluateFM derives chain parameters
// from one CLR configuration, a checkpoint policy and the permanent
// process, so the parity sweep covers every chain shape the catalogs
// produce.
func chainParamsFor(hw relmodel.HWMethod, ssw relmodel.SSWMethod, asw relmodel.ASWMethod,
	ck faultmodel.CheckpointPolicy, lambda float64, perm bool) relmodel.ChainParams {
	execUS := 250 * hw.TimeFactor * asw.TimeFactor
	checkpoints := ssw.Checkpoints
	chkTimeUS := ssw.CheckpointTimeFrac * execUS
	detCov, tolCov := ssw.DetectionCoverage, ssw.ToleranceCoverage
	if ck.Enabled() {
		total := checkpoints + ck.Extra()
		chkTimeUS = (ssw.CheckpointTimeFrac*float64(checkpoints) +
			ck.TimeFrac()*float64(ck.Extra())) / float64(total) * execUS
		checkpoints = total
		detCov = faultmodel.Combine(detCov, ck.DetBoost())
		tolCov = faultmodel.Combine(tolCov, ck.TolBoost())
	}
	n := float64(checkpoints + 1)
	p := relmodel.ChainParams{
		ExecTimeUS:            execUS,
		LambdaPerUS:           lambda,
		Checkpoints:           checkpoints,
		DetTimeUS:             ssw.DetectionTimeFrac * execUS / n,
		TolTimeUS:             ssw.ToleranceTimeFrac * execUS / n,
		ChkTimeUS:             chkTimeUS,
		MHW:                   hw.Masking,
		MImplSSW:              0.1,
		CovDet:                detCov,
		MTol:                  tolCov,
		MASW:                  asw.Masking,
		ModelCheckpointErrors: true,
	}
	if perm {
		p.PermPerUS = 2e-5
		p.RepairProb = faultmodel.Combine(0.6, hw.Repair)
		p.RepairTimeUS = 40
	}
	return p
}

// TestSparseLUMatchesDense is the sparse kernel's exactness contract: on
// every chain shape the reliability model builds, on random chains that
// force pivot row swaps, and on singular and malformed chains, Analyze and
// AnalyzePair return exactly what the dense kernel returns, errors
// included.
func TestSparseLUMatchesDense(t *testing.T) {
	cats := []struct {
		name string
		cat  *relmodel.Catalog
	}{
		{"default", relmodel.DefaultCatalog()},
		{"extended", relmodel.ExtendedCatalog()},
		{"fpga", relmodel.FPGACatalog()},
	}
	shapes := 0
	for _, c := range cats {
		for si, ssw := range c.cat.SSW {
			for ci, ck := range tdse.CheckpointAxis([]int{1, 2, 4}) {
				for _, perm := range []bool{false, true} {
					// HW and ASW methods change values, not shape: cycle
					// through them so every method is exercised.
					hw := c.cat.HW[(si+ci)%len(c.cat.HW)]
					asw := c.cat.ASW[(si+2*ci)%len(c.cat.ASW)]
					for _, lambda := range []float64{1e-6, 3e-3} {
						p := chainParamsFor(hw, ssw, asw, ck, lambda, perm)
						tc, err := relmodel.BuildTimingChain(p)
						if err != nil {
							t.Fatal(err)
						}
						fc, err := relmodel.BuildFunctionalChain(p)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("%s/%s/ckpt%d/perm=%v/λ=%g", c.name, ssw.Name, ci, perm, lambda)
						checkChains(t, label, tc, fc)
						shapes++
					}
				}
			}
		}
	}
	if shapes == 0 {
		t.Fatal("no chain shapes covered")
	}

	swapped := 0
	for seed := int64(0); seed < 200; seed++ {
		// Even seeds pair a chain with its twin (one shared factor), odd
		// seeds with an unrelated chain.
		n := 2 + int(seed%10)
		a := swappingChain(rand.New(rand.NewSource(seed)), n)
		b := swappingChain(rand.New(rand.NewSource(seed+seed%2*1000)), n)
		swapped += markov.PivotSwaps(a)
		checkChains(t, fmt.Sprintf("swap/seed=%d", seed), a, b)
	}
	if swapped == 0 {
		t.Fatal("no random chain forced a pivot row swap")
	}

	for name, c := range malformedChains() {
		checkChains(t, name, c, c)
	}
}

// swappingChain builds a random absorbing chain whose transient states
// overshoot their outgoing mass by up to 1e-10, inside Analyze's 1e-9
// tolerance. A column of (I − Q)ᵀ is then no longer diagonally dominant,
// which is what makes partial pivoting swap rows; exactly stochastic
// chains never need a swap.
func swappingChain(rng *rand.Rand, n int) *markov.Chain {
	c := markov.New()
	trans := make([]int, n)
	for i := range trans {
		trans[i] = c.AddStateIdx("t", i, rng.Float64()*5)
	}
	ok := c.AddAbsorbing("ok")
	bad := c.AddAbsorbing("bad")
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			// All mass on one other transient state, overshooting.
			self := rng.Float64() * 0.9
			j := (i + 1 + rng.Intn(n)) % n
			c.Transition(trans[i], trans[i], self)
			c.Transition(trans[i], trans[j], (1-self)*(1+1e-10))
			continue
		}
		w := make([]float64, 4)
		sum := 0.0
		for k := range w {
			w[k] = 0.1 + rng.Float64()
			sum += w[k]
		}
		c.Transition(trans[i], trans[rng.Intn(n)], w[0]/sum)
		c.Transition(trans[i], trans[rng.Intn(n)], w[1]/sum)
		c.Transition(trans[i], ok, w[2]/sum)
		c.Transition(trans[i], bad, w[3]/sum)
	}
	c.SetStart(trans[rng.Intn(n)])
	return c
}

// malformedChains returns chains the analysis must reject, keyed by name.
func malformedChains() map[string]*markov.Chain {
	out := map[string]*markov.Chain{}

	// A closed transient cycle: an absorbing state exists but the cycle
	// never reaches it, so (I − Q)ᵀ is singular.
	c := markov.New()
	s0, s1 := c.AddState("s0", 1), c.AddState("s1", 1)
	s2 := c.AddState("s2", 1)
	end := c.AddAbsorbing("end")
	c.Transition(s0, s1, 1)
	c.Transition(s1, s0, 1)
	c.Transition(s2, end, 1)
	c.SetStart(s0)
	out["singular"] = c

	// A self-absorbing loop ahead of a working tail: singular at a later
	// pivot than the first.
	c = markov.New()
	a, b := c.AddState("a", 1), c.AddState("b", 1)
	end = c.AddAbsorbing("end")
	c.Transition(a, end, 1)
	c.Transition(b, b, 1)
	c.SetStart(a)
	out["singular-late"] = c

	c = markov.New()
	s := c.AddState("s", 1)
	c.Transition(s, s, 1)
	c.SetStart(s)
	out["no-absorbing"] = c

	c = markov.New()
	s = c.AddState("s", 1)
	end = c.AddAbsorbing("end")
	c.Transition(s, end, 0.5)
	c.SetStart(s)
	out["bad-mass"] = c

	c = markov.New()
	c.AddState("s", 1)
	c.AddAbsorbing("end")
	out["no-start"] = c
	return out
}

// FuzzAnalyzeMatchesDense decodes arbitrary bytes into a chain — state
// counts, residences and byte weights normalized into transition
// probabilities — and checks the sparse kernel against the dense oracle,
// bitwise, through Analyze and AnalyzePair.
func FuzzAnalyzeMatchesDense(f *testing.F) {
	f.Add([]byte{3, 1, 0, 5, 10, 0, 3, 7, 2, 0, 9, 1, 1, 4, 0, 0, 8})
	f.Add([]byte{7, 2, 3, 200, 1, 0, 0, 0, 0, 0, 0, 1, 1, 90, 0, 255, 0, 0, 0, 0, 0, 3, 4, 5})
	f.Add([]byte{1, 0, 0, 0, 255})
	f.Add([]byte{2, 0, 1, 1, 9, 0, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := chainFromBytes(data, 0)
		b := chainFromBytes(data, 1)
		if a == nil || b == nil {
			return
		}
		checkChains(t, "fuzz", a, b)
	})
}

// chainFromBytes decodes a chain: n transient and m absorbing states, a
// start, then per transient state a residence byte, an overshoot flag and
// one weight byte per target state. startShift moves the start, so the two
// chains of a pair share a system but not always a right-hand side.
// Missing bytes read as zero; it returns nil for empty input.
func chainFromBytes(data []byte, startShift int) *markov.Chain {
	if len(data) == 0 {
		return nil
	}
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		at++
		return int(data[at-1])
	}
	n, m := 1+next()%12, next()%3
	start := (next() + startShift) % n
	c := markov.New()
	for i := 0; i < n; i++ {
		c.AddStateIdx("t", i, float64(next()))
	}
	for j := 0; j < m; j++ {
		c.AddAbsorbing(fmt.Sprintf("a%d", j))
	}
	for i := 0; i < n; i++ {
		over := next()%4 == 0
		w := make([]float64, n+m)
		sum := 0.0
		for j := range w {
			w[j] = float64(next())
			sum += w[j]
		}
		if sum == 0 {
			w[(i+1)%(n+m)], sum = 1, 1
		}
		for j, wj := range w {
			p := wj / sum
			if over && j < n {
				p *= 1 + 1e-10
			}
			c.Transition(i, j, math.Min(p, 1))
		}
	}
	c.SetStart(start)
	return c
}
