package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/service"
)

// budget is the evaluation count a spec pays for: pop × (gens+1) per GA
// stage. Checking it keeps a run that searched less from counting as
// faster.
func budget(s *service.JobSpec) int {
	stages := 1
	if s.Method == "proposed" {
		stages = 2
	}
	return stages * s.Pop * (s.Gens + 1)
}

// checkOutcome verifies one finished request against its job: the job
// ended done, the server's spec hash is the client-side one, and the
// front is non-empty, finite, mutually non-dominated and paid its full
// evaluation budget.
func checkOutcome(j *job, o *outcome) error {
	if o.Err != nil {
		return o.Err
	}
	if o.Job.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", o.Job.ID, o.Job.State, o.Job.Error)
	}
	if o.Job.SpecHash != j.Hash {
		return fmt.Errorf("job %s: server spec hash %s, client computed %s", o.Job.ID, o.Job.SpecHash, j.Hash)
	}
	var f service.FrontWire
	if err := json.Unmarshal(o.Front, &f); err != nil {
		return fmt.Errorf("job %s: decoding front: %w", o.Job.ID, err)
	}
	if err := checkFront(&f, len(j.Spec.Objectives)); err != nil {
		return fmt.Errorf("job %s: %w", o.Job.ID, err)
	}
	if want := budget(&j.Spec); f.Evaluations != want {
		return fmt.Errorf("job %s: %d evaluations, budget is %d", o.Job.ID, f.Evaluations, want)
	}
	return nil
}

// checkFront rejects an empty front, non-finite values and any point that
// another point dominates (all objectives minimized).
func checkFront(f *service.FrontWire, objectives int) error {
	if len(f.Points) == 0 {
		return fmt.Errorf("empty front")
	}
	for i, p := range f.Points {
		if len(p.Objectives) != objectives {
			return fmt.Errorf("point %d has %d objectives, want %d", i, len(p.Objectives), objectives)
		}
		vals := append([]float64{p.MakespanUS, p.FunctionalRel, p.ErrProb, p.MTTFHours, p.EnergyUJ, p.PeakPowerW}, p.Objectives...)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("point %d has a non-finite value", i)
			}
		}
	}
	for i, a := range f.Points {
		for k, b := range f.Points {
			if i != k && dominates(a.Objectives, b.Objectives) {
				return fmt.Errorf("point %d dominates point %d", i, k)
			}
		}
	}
	return nil
}

func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// frontsSHA256 hashes the spec hashes and compacted front bytes of the
// first n jobs of a list, in list order, so fronts can be compared across
// runs and commits. It returns "" when one of them did not finish.
func frontsSHA256(jobs []job, outs []*outcome, n int) string {
	if len(outs) < n {
		return ""
	}
	h := sha256.New()
	for i, o := range outs[:n] {
		if o.Front == nil {
			return ""
		}
		fmt.Fprintf(h, "%s\n%s\n", jobs[i].Hash, o.Front)
	}
	return hex.EncodeToString(h.Sum(nil))
}
