package relmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/markov"
)

// randomParams draws a valid ChainParams uniformly over the knob space the
// DSE explores, occasionally with unequal checkpoint intervals and with the
// checkpoint-error extension toggled at random.
func randomParams(rng *rand.Rand) ChainParams {
	p := ChainParams{
		ExecTimeUS:            100 + rng.Float64()*2000,
		LambdaPerUS:           rng.Float64() * 5e-4,
		Checkpoints:           rng.Intn(5),
		DetTimeUS:             rng.Float64() * 30,
		TolTimeUS:             rng.Float64() * 40,
		ChkTimeUS:             rng.Float64() * 30,
		MHW:                   rng.Float64(),
		MImplSSW:              rng.Float64(),
		CovDet:                rng.Float64(),
		MTol:                  rng.Float64(),
		MASW:                  rng.Float64(),
		ModelCheckpointErrors: rng.Intn(2) == 1,
	}
	if rng.Intn(3) == 0 {
		n := p.Checkpoints + 1
		fracs := make([]float64, n)
		sum := 0.0
		for i := range fracs {
			fracs[i] = 0.1 + rng.Float64()
			sum += fracs[i]
		}
		// Normalize exactly: assign the residual to the last interval so
		// the fractions sum to 1 within Validate's tolerance.
		rest := 1.0
		for i := 0; i < n-1; i++ {
			fracs[i] /= sum
			rest -= fracs[i]
		}
		fracs[n-1] = rest
		p.IntervalFracs = fracs
	}
	return p
}

func baseParams() ChainParams {
	return ChainParams{
		ExecTimeUS:  1000,
		LambdaPerUS: 1e-4, // λT = 0.1
		Checkpoints: 0,
		DetTimeUS:   20,
		TolTimeUS:   30,
		ChkTimeUS:   25,
		MHW:         0.3,
		MImplSSW:    0.1,
		CovDet:      0.9,
		MTol:        0.95,
		MASW:        0.5,
	}
}

func TestValidateParams(t *testing.T) {
	p := baseParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bads := []func(*ChainParams){
		func(p *ChainParams) { p.ExecTimeUS = 0 },
		func(p *ChainParams) { p.LambdaPerUS = -1 },
		func(p *ChainParams) { p.Checkpoints = -1 },
		func(p *ChainParams) { p.DetTimeUS = -1 },
		func(p *ChainParams) { p.MHW = 1.5 },
		func(p *ChainParams) { p.CovDet = -0.1 },
	}
	for i, mut := range bads {
		p := baseParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNoFaultsDegenerate(t *testing.T) {
	p := baseParams()
	p.LambdaPerUS = 0
	rel, err := AnalyzeChains(p)
	if err != nil {
		t.Fatal(err)
	}
	if rel.ErrProb != 0 {
		t.Fatalf("ErrProb = %v with zero fault rate", rel.ErrProb)
	}
	// Without errors, average time equals the error-free time.
	if math.Abs(rel.AvgExTimeUS-rel.MinExTimeUS) > 1e-9 {
		t.Fatalf("AvgExT %v ≠ MinExT %v at λ=0", rel.AvgExTimeUS, rel.MinExTimeUS)
	}
	if math.Abs(rel.MinExTimeUS-(1000+20)) > 1e-9 {
		t.Fatalf("MinExT = %v, want 1020", rel.MinExTimeUS)
	}
}

func TestNoMitigationMatchesClosedForm(t *testing.T) {
	// With no masking, detection or tolerance at all, the error
	// probability must be exactly 1 − e^(−λT).
	p := ChainParams{
		ExecTimeUS:  500,
		LambdaPerUS: 2e-4,
	}
	rel, err := AnalyzeChains(p)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Exp(-2e-4*500)
	if math.Abs(rel.ErrProb-want) > 1e-12 {
		t.Fatalf("ErrProb = %v, want %v", rel.ErrProb, want)
	}
	if math.Abs(rel.AvgExTimeUS-500) > 1e-9 {
		t.Fatalf("AvgExT = %v, want 500 (no overheads, no retries)", rel.AvgExTimeUS)
	}
}

func TestPureHWMaskingClosedForm(t *testing.T) {
	// Only HW masking: P(error) = (1−pne)(1−mHW).
	p := ChainParams{
		ExecTimeUS:  800,
		LambdaPerUS: 1e-4,
		MHW:         0.6,
	}
	rel, err := AnalyzeChains(p)
	if err != nil {
		t.Fatal(err)
	}
	pne := math.Exp(-1e-4 * 800)
	want := (1 - pne) * (1 - 0.6)
	if math.Abs(rel.ErrProb-want) > 1e-12 {
		t.Fatalf("ErrProb = %v, want %v", rel.ErrProb, want)
	}
}

func TestPerfectDetectionAndToleranceEliminatesErrors(t *testing.T) {
	p := baseParams()
	p.CovDet = 1
	p.MTol = 1
	p.ModelCheckpointErrors = false
	rel, err := AnalyzeChains(p)
	if err != nil {
		t.Fatal(err)
	}
	if rel.ErrProb > 1e-12 {
		t.Fatalf("perfect detection+tolerance left ErrProb %v", rel.ErrProb)
	}
	// Retries cost time: average must exceed the error-free minimum.
	if rel.AvgExTimeUS <= rel.MinExTimeUS {
		t.Fatalf("retries should cost time: avg %v ≤ min %v", rel.AvgExTimeUS, rel.MinExTimeUS)
	}
}

func TestRetryClosedForm(t *testing.T) {
	// Perfect detection and tolerance with no masking: a geometric retry.
	// Per attempt: success w.p. pne, otherwise pay detection+tolerance and
	// retry. E[T] = (Texec+Tdet)/pne + Ttol·(1−pne)/pne.
	p := ChainParams{
		ExecTimeUS:  1000,
		LambdaPerUS: 2e-4,
		DetTimeUS:   50,
		TolTimeUS:   80,
		CovDet:      1,
		MTol:        1,
	}
	rel, err := AnalyzeChains(p)
	if err != nil {
		t.Fatal(err)
	}
	pne := math.Exp(-2e-4 * 1000)
	want := (1000+50)/pne + 80*(1-pne)/pne
	if math.Abs(rel.AvgExTimeUS-want) > 1e-9 {
		t.Fatalf("AvgExT = %v, want %v", rel.AvgExTimeUS, want)
	}
}

func TestCheckpointsReduceErrorAndRetryCost(t *testing.T) {
	mk := func(chk int) TaskReliability {
		p := baseParams()
		p.Checkpoints = chk
		p.LambdaPerUS = 5e-4 // high rate so differences are visible
		rel, err := AnalyzeChains(p)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	none := mk(0)
	two := mk(2)
	four := mk(4)
	// At this fault rate a couple of checkpoints pay off: failures redo a
	// shorter interval.
	if !(two.AvgExTimeUS < none.AvgExTimeUS) {
		t.Fatalf("checkpointing should pay off at high λ: none %v, two %v", none.AvgExTimeUS, two.AvgExTimeUS)
	}
	// But checkpoints are not free: the error-free time grows with every
	// checkpoint, so an optimal count exists (the adverse effect of
	// over-checkpointing noted by Das et al., ref. [16] in the paper).
	if !(four.MinExTimeUS > two.MinExTimeUS && two.MinExTimeUS > none.MinExTimeUS) {
		t.Fatal("checkpoint overhead must raise MinExT monotonically")
	}
}

func TestCheckpointErrorsRaiseErrProb(t *testing.T) {
	p := baseParams()
	p.Checkpoints = 3
	p.ModelCheckpointErrors = false
	without, err := AnalyzeChains(p)
	if err != nil {
		t.Fatal(err)
	}
	p.ModelCheckpointErrors = true
	with, err := AnalyzeChains(p)
	if err != nil {
		t.Fatal(err)
	}
	if !(with.ErrProb > without.ErrProb) {
		t.Fatalf("checkpoint errors should raise ErrProb: %v vs %v", with.ErrProb, without.ErrProb)
	}
}

func TestImplicitMaskingLowersErrProb(t *testing.T) {
	prev := math.Inf(1)
	for _, m := range []float64{0, 0.05, 0.10, 0.20} {
		p := baseParams()
		p.MImplSSW = m
		rel, err := AnalyzeChains(p)
		if err != nil {
			t.Fatal(err)
		}
		if rel.ErrProb >= prev {
			t.Fatalf("ErrProb not decreasing with implicit masking %v: %v ≥ %v", m, rel.ErrProb, prev)
		}
		prev = rel.ErrProb
	}
}

func TestTimingChainStructure(t *testing.T) {
	p := baseParams()
	p.Checkpoints = 2
	c, err := BuildTimingChain(p)
	if err != nil {
		t.Fatal(err)
	}
	// 3 intervals × 6 states + 2 checkpoint states + End = 21.
	if got := c.NumStates(); got != 21 {
		t.Fatalf("timing chain has %d states, want 21", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFunctionalChainStructure(t *testing.T) {
	p := baseParams()
	p.Checkpoints = 1
	c, err := BuildFunctionalChain(p)
	if err != nil {
		t.Fatal(err)
	}
	// 2 intervals × 6 states + 1 checkpoint + noError + Error = 15.
	if got := c.NumStates(); got != 15 {
		t.Fatalf("functional chain has %d states, want 15", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildersRejectInvalidParams(t *testing.T) {
	p := baseParams()
	p.ExecTimeUS = -5
	if _, err := BuildTimingChain(p); err == nil {
		t.Error("timing builder accepted invalid params")
	}
	if _, err := BuildFunctionalChain(p); err == nil {
		t.Error("functional builder accepted invalid params")
	}
	if _, err := AnalyzeChains(p); err == nil {
		t.Error("AnalyzeChains accepted invalid params")
	}
}

func TestPropertyProbabilitiesWellFormed(t *testing.T) {
	f := func(seed int64, chkRaw, a, b, c, d, e uint8) bool {
		p := ChainParams{
			ExecTimeUS:            100 + float64(seed%2000+2000)/2, // positive
			LambdaPerUS:           float64(a) / 255 * 1e-3,
			Checkpoints:           int(chkRaw % 5),
			DetTimeUS:             float64(b) / 10,
			TolTimeUS:             float64(c) / 10,
			ChkTimeUS:             float64(d) / 10,
			MHW:                   float64(a) / 255,
			MImplSSW:              float64(b) / 255 * 0.5,
			CovDet:                float64(c) / 255,
			MTol:                  float64(d) / 255,
			MASW:                  float64(e) / 255,
			ModelCheckpointErrors: true,
		}
		if p.ExecTimeUS <= 0 {
			return true
		}
		rel, err := AnalyzeChains(p)
		if err != nil {
			return false
		}
		if rel.ErrProb < -1e-12 || rel.ErrProb > 1+1e-12 {
			return false
		}
		if rel.AvgExTimeUS < rel.MinExTimeUS-1e-9 {
			// Average can never beat the error-free path.
			return false
		}
		return !math.IsNaN(rel.AvgExTimeUS) && !math.IsInf(rel.AvgExTimeUS, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyChainsRowStochastic(t *testing.T) {
	// Both chains of Fig. 3 must be structurally sound for every valid
	// parameter combination: each transient state's outgoing probabilities
	// sum to 1 and an absorbing state is reachable from the start —
	// markov.Chain.Validate checks exactly that.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomParams(rng)
		if err := p.Validate(); err != nil {
			return false // generator must only emit valid params
		}
		for _, build := range []func(ChainParams) (*markov.Chain, error){
			BuildTimingChain, BuildFunctionalChain,
		} {
			c, err := build(p)
			if err != nil {
				return false
			}
			if err := c.Validate(); err != nil {
				t.Logf("seed %d: %+v: %v", seed, p, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMoreMaskingNeverHurts(t *testing.T) {
	f := func(mRaw, m2Raw uint8) bool {
		m1 := float64(mRaw) / 255
		m2 := float64(m2Raw) / 255
		if m1 > m2 {
			m1, m2 = m2, m1
		}
		p1, p2 := baseParams(), baseParams()
		p1.MHW, p2.MHW = m1, m2
		r1, err1 := AnalyzeChains(p1)
		r2, err2 := AnalyzeChains(p2)
		if err1 != nil || err2 != nil {
			return false
		}
		return r2.ErrProb <= r1.ErrProb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnequalIntervalsValidation(t *testing.T) {
	p := baseParams()
	p.Checkpoints = 2
	p.IntervalFracs = []float64{0.5, 0.3} // wrong arity
	if err := p.Validate(); err == nil {
		t.Error("wrong interval count accepted")
	}
	p.IntervalFracs = []float64{0.5, 0.3, 0.3} // sums to 1.1
	if err := p.Validate(); err == nil {
		t.Error("non-normalized fractions accepted")
	}
	p.IntervalFracs = []float64{0.5, -0.1, 0.6}
	if err := p.Validate(); err == nil {
		t.Error("negative fraction accepted")
	}
	p.IntervalFracs = []float64{0.5, 0.2, 0.3}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid unequal intervals rejected: %v", err)
	}
}

func TestUnequalIntervalsEquivalentWhenUniform(t *testing.T) {
	a := baseParams()
	a.Checkpoints = 3
	b := a
	b.IntervalFracs = []float64{0.25, 0.25, 0.25, 0.25}
	ra, err := AnalyzeChains(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := AnalyzeChains(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ra.AvgExTimeUS-rb.AvgExTimeUS) > 1e-9 || math.Abs(ra.ErrProb-rb.ErrProb) > 1e-12 {
		t.Fatalf("uniform IntervalFracs diverge from default: %+v vs %+v", ra, rb)
	}
}

func TestUnequalIntervalsChangeOutcome(t *testing.T) {
	base := baseParams()
	base.Checkpoints = 1
	base.LambdaPerUS = 5e-4
	equal := base
	skewed := base
	skewed.IntervalFracs = []float64{0.85, 0.15}
	re, err := AnalyzeChains(equal)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := AnalyzeChains(skewed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(re.AvgExTimeUS-rs.AvgExTimeUS) < 1e-9 {
		t.Fatal("skewed intervals produced identical timing — placement has no effect?")
	}
	// The error-free time is unaffected by placement (same total work and
	// overheads).
	if math.Abs(re.MinExTimeUS-rs.MinExTimeUS) > 1e-9 {
		t.Fatal("interval placement must not change the error-free time")
	}
}

func TestUnequalIntervalsOptimalPlacement(t *testing.T) {
	// With a single checkpoint, a heavily skewed split (checkpoint very
	// early or very late) re-executes more work per failure on the long
	// side than a balanced split: the balanced placement should minimize
	// average time at high fault rates.
	mk := func(fracs []float64) float64 {
		p := baseParams()
		p.Checkpoints = 1
		p.LambdaPerUS = 8e-4
		p.IntervalFracs = fracs
		rel, err := AnalyzeChains(p)
		if err != nil {
			t.Fatal(err)
		}
		return rel.AvgExTimeUS
	}
	balanced := mk([]float64{0.5, 0.5})
	earlySkew := mk([]float64{0.1, 0.9})
	lateSkew := mk([]float64{0.9, 0.1})
	if !(balanced < earlySkew && balanced < lateSkew) {
		t.Fatalf("balanced placement should win at high λ: balanced %v, early %v, late %v",
			balanced, earlySkew, lateSkew)
	}
}

// TestAnalyzeChainsAllocFree pins the task-metric hot path to zero
// allocations in steady state, for the paired checkpoint-free solve and for
// checkpointed chains that factor twice.
func TestAnalyzeChainsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	ckpt := baseParams()
	ckpt.Checkpoints = 3
	ckpt.ModelCheckpointErrors = true
	perm := ckpt
	perm.PermPerUS, perm.RepairProb, perm.RepairTimeUS = 1e-5, 0.5, 10
	for name, p := range map[string]ChainParams{"checkpoint-free": baseParams(), "checkpointed": ckpt, "permanent": perm} {
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := AnalyzeChains(p); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: %v allocs per AnalyzeChains, want 0", name, allocs)
		}
	}
}
