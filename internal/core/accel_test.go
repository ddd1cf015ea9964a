package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/moea"
)

// runMethod dispatches one named strategy under cfg, returning the union
// front (the Agnostic per-layer map is dropped).
func runMethod(t *testing.T, method string, inst *Instance, cfg RunConfig) *Front {
	t.Helper()
	var (
		front *Front
		err   error
	)
	switch method {
	case "fcclr":
		front, err = FcCLR(inst, cfg)
	case "pfclr":
		front, err = PfCLR(inst, cfg, filteredLib(t, inst))
	case "proposed":
		front, err = Proposed(inst, cfg, filteredLib(t, inst))
	case "agnostic":
		front, _, err = Agnostic(inst, cfg)
	default:
		t.Fatalf("unknown method %q", method)
	}
	if err != nil {
		t.Fatal(err)
	}
	return front
}

// TestDeltaOnOffByteIdenticalFronts is the tentpole exactness contract at
// the strategy level: every method on both engines at several seeds must
// produce a bit-identical front whether offspring are evaluated
// incrementally (the default) or from scratch.
func TestDeltaOnOffByteIdenticalFronts(t *testing.T) {
	inst := sobelInstance()
	for _, method := range []string{"fcclr", "pfclr", "proposed", "agnostic"} {
		for _, engine := range []Engine{NSGA2, MOEAD} {
			for _, seed := range []int64{1, 17} {
				t.Run(fmt.Sprintf("%s/%s/seed%d", method, engine, seed), func(t *testing.T) {
					cfg := RunConfig{Pop: 20, Gens: 8, Seed: seed, Engine: engine}
					on := frontBytes(t, runMethod(t, method, inst, cfg))
					cfg.DisableDelta = true
					off := frontBytes(t, runMethod(t, method, inst, cfg))
					if on != off {
						t.Fatal("delta evaluation changed the front")
					}
				})
			}
		}
	}
}

// TestDeltaOnOffIdenticalOnSynthetic repeats the contract on a larger
// synthetic instance where communication volumes and memory footprints are
// non-trivial, so prefix replay and suffix recompute both carry weight.
func TestDeltaOnOffIdenticalOnSynthetic(t *testing.T) {
	inst := synInstance(18, 23)
	inst.Comm.StartupUS = 4
	inst.Comm.PerKBUS = 0.3
	cfg := RunConfig{Pop: 24, Gens: 10, Seed: 23}
	on := frontBytes(t, runMethod(t, "proposed", inst, cfg))
	cfg.DisableDelta = true
	off := frontBytes(t, runMethod(t, "proposed", inst, cfg))
	if on != off {
		t.Fatal("delta evaluation changed the synthetic-instance front")
	}
}

// TestDeltaResumeByteIdentical interrupts a delta-evaluated Proposed run
// mid-stage and checks the resumed run still matches the delta-off
// reference bit-exactly — checkpointed parents carry no delta state, so
// the first post-resume generation silently falls back to full evaluation
// and must land on the same floats.
func TestDeltaResumeByteIdentical(t *testing.T) {
	inst := sobelInstance()
	flib := filteredLib(t, inst)
	cfg := RunConfig{Pop: 24, Gens: 10, Seed: 3}

	refCfg := cfg
	refCfg.DisableDelta = true
	ref, err := Proposed(inst, refCfg, flib)
	if err != nil {
		t.Fatal(err)
	}
	want := frontBytes(t, ref)

	ck := newMemCheckpointer()
	ctx, cancel := context.WithCancel(context.Background())
	icfg := cfg
	icfg.Ctx = ctx
	icfg.Checkpoint = ck
	icfg.CheckpointEvery = 2
	icfg.Progress = func(ev ProgressEvent) {
		if ev.Stage == "fcclr" && ev.Generation == 5 {
			cancel()
		}
	}
	if _, err := Proposed(inst, icfg, flib); err == nil {
		t.Fatal("interrupted run returned no error")
	}

	rcfg := cfg
	rcfg.Checkpoint = ck
	res, err := Proposed(inst, rcfg, flib)
	if err != nil {
		t.Fatal(err)
	}
	if got := frontBytes(t, res); got != want {
		t.Fatal("delta run resumed from checkpoint differs from delta-off reference")
	}
}

// TestAccelCountersMove checks the process-wide acceleration counters
// actually advance under a delta-evaluated run.
func TestAccelCountersMove(t *testing.T) {
	before := AccelTotals()
	inst := sobelInstance()
	if _, err := FcCLR(inst, smallCfg(91)); err != nil {
		t.Fatal(err)
	}
	after := AccelTotals()
	if after.DeltaPrefixRuns+after.DeltaParentReuse == before.DeltaPrefixRuns+before.DeltaParentReuse {
		t.Fatal("delta counters did not advance")
	}
}

// TestFitnessKeyRoundTrip checks the canonical key delta evaluation patches
// distinguishes the schedule inputs it must, matches when they agree, and
// decodes back to bit-identical decisions.
func TestFitnessKeyRoundTrip(t *testing.T) {
	inst := sobelInstance()
	p := newFCProblem(inst, allFree)
	rng := rand.New(rand.NewSource(5))
	n := p.NumTasks()
	g1 := &moea.Genome{Order: rng.Perm(n)}
	for task := 0; task < n; task++ {
		g1.Genes = append(g1.Genes, p.RandomGene(rng, task))
	}
	g2 := g1.Clone()
	d1 := p.decisionsInto(nil, g1)
	k1 := appendFitnessKey(nil, g1.Order, d1)
	k2 := appendFitnessKey(nil, g2.Order, p.decisionsInto(nil, g2))
	if !slices.Equal(k1, k2) {
		t.Fatal("identical genomes produced different keys")
	}
	if got := decisionsFromKey(nil, k1); !reflect.DeepEqual(got, d1) {
		t.Fatalf("decisions do not round-trip through the key:\ngot  %+v\nwant %+v", got, d1)
	}
	// Swapping two order entries must change the key.
	g2.Order[0], g2.Order[1] = g2.Order[1], g2.Order[0]
	k3 := appendFitnessKey(nil, g2.Order, p.decisionsInto(nil, g2))
	if slices.Equal(k1, k3) {
		t.Fatal("different orders produced equal keys")
	}
}
