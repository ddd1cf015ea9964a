// Package tdse implements the task-level design space exploration of the
// paper (tDSE, §IV and §VI.B): exhaustive enumeration of a task type's
// CLR-integrated implementations — base implementation × DVFS mode × one
// method per reliability layer — evaluation of each candidate through the
// Markov-chain reliability models, and Pareto filtering under configurable
// task-level objective sets (the rows of TABLE IV).
//
// Pareto filtering is performed per PE type: an implementation bound to PE
// type A can never substitute for one bound to PE type B during task
// mapping, so dominance is only meaningful within one PE type. This matches
// TABLE IV row I, where a single-objective filter still leaves one point
// per compatible PE type.
package tdse

import (
	"fmt"

	"repro/internal/characterize"
	"repro/internal/faultmodel"
	"repro/internal/pareto"
	"repro/internal/platform"
	"repro/internal/relmodel"
)

// Objective identifies one task-level optimization objective of TABLE IV.
// All are minimized; MTTF is negated internally.
type Objective int

const (
	// AvgExT minimizes the average execution time.
	AvgExT Objective = iota
	// ErrProb minimizes the probability of error during execution.
	ErrProb
	// MTTF maximizes the implementation's mean time to failure.
	MTTF
	// Energy minimizes the energy per execution.
	Energy
	// Power minimizes the average power dissipation.
	Power
	// PeakTemp minimizes the steady-state temperature.
	PeakTemp
	// MinExT minimizes the error-free (minimum) execution time — distinct
	// from AvgExT because recovery dynamics decouple the two.
	MinExT
	numObjectives
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case AvgExT:
		return "avg-exec-time"
	case ErrProb:
		return "error-probability"
	case MTTF:
		return "mttf"
	case Energy:
		return "energy"
	case Power:
		return "power"
	case PeakTemp:
		return "peak-temperature"
	case MinExT:
		return "min-exec-time"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ObjectiveSets returns the cumulative objective sets of TABLE IV:
// row I = {AvgExT}, row II adds ErrProb, … row VI adds PeakTemp.
func ObjectiveSets() [][]Objective {
	all := []Objective{AvgExT, ErrProb, MTTF, Energy, Power, PeakTemp}
	out := make([][]Objective, len(all))
	for i := range all {
		out[i] = append([]Objective(nil), all[:i+1]...)
	}
	return out
}

// StudyObjectiveSets returns the three task-level objective sets of the
// tDSE_1/tDSE_2/tDSE_3 study (Fig. 9, Fig. 10, TABLE VII). The paper grows
// the set with "additional optimization objectives"; here:
// tDSE_1 = {AvgExT, ErrProb}, tDSE_2 adds MTTF, tDSE_3 adds the minimum
// execution time (a distinct TABLE II metric that is not a monotone
// function of the others, so it genuinely enlarges the fronts). The list
// is shared by the experiment harness and the job service's tdse_set knob.
func StudyObjectiveSets() [][]Objective {
	return [][]Objective{
		{AvgExT, ErrProb},
		{AvgExT, ErrProb, MTTF},
		{AvgExT, ErrProb, MTTF, Energy, Power, PeakTemp, MinExT},
	}
}

// Value extracts the minimization value of objective o from task metrics.
func Value(m relmodel.Metrics, o Objective) float64 {
	switch o {
	case AvgExT:
		return m.AvgExTimeUS
	case ErrProb:
		return m.ErrProb
	case MTTF:
		return -m.MTTFHours
	case Energy:
		return m.EnergyUJ
	case Power:
		return m.PowerW
	case PeakTemp:
		return m.TempC
	case MinExT:
		return m.MinExTimeUS
	default:
		panic(fmt.Sprintf("tdse: unknown objective %d", int(o)))
	}
}

// Vector extracts the full minimization vector for the objective set.
func Vector(m relmodel.Metrics, objectives []Objective) []float64 {
	out := make([]float64, len(objectives))
	for i, o := range objectives {
		out[i] = Value(m, o)
	}
	return out
}

// Candidate is one fully configured task implementation: a base
// implementation plus a CLR configuration (and, when the checkpoint axis is
// enumerated, a task-level checkpoint policy), with its evaluated metrics.
type Candidate struct {
	Base       relmodel.Impl
	Assignment relmodel.Assignment
	// Checkpoint is the task-level checkpoint policy of the candidate; the
	// zero value (legacy enumerations) means the axis is off.
	Checkpoint faultmodel.CheckpointPolicy
	Metrics    relmodel.Metrics
}

// Options restricts the enumeration, enabling both the single-layer
// baselines of the evaluation (§VI.C) and the implicit-masking sweep of
// Fig. 6(b). Nil index slices mean "all methods of that layer".
type Options struct {
	// Modes restricts the DVFS modes (indices into the PE type's modes).
	// Out-of-range indices for a PE type with fewer modes are skipped.
	Modes []int
	// HW, SSW, ASW restrict the per-layer method indices.
	HW, SSW, ASW []int
	// ImplicitMaskingOverride, when non-negative, replaces every base
	// implementation's implicit SSW masking (Fig. 6(b) sweep). Negative
	// means "keep the implementation's own value".
	ImplicitMaskingOverride float64
	// Checkpoints enumerates the task-level checkpoint-policy axis: every
	// candidate is additionally evaluated under each listed policy. Nil —
	// the legacy enumeration — evaluates only the zero (no-policy) point,
	// keeping candidate order and metrics bit-identical to the
	// pre-subsystem engine. Include the zero policy explicitly to keep the
	// unaugmented points alongside the policies.
	Checkpoints []faultmodel.CheckpointPolicy
	// Faults, when non-nil, evaluates every candidate under the resolved
	// per-PE-type fault model (combined transient+permanent analysis).
	Faults *faultmodel.Model
}

// DefaultOptions enumerates everything and keeps implementations' own
// implicit masking.
func DefaultOptions() Options {
	return Options{ImplicitMaskingOverride: -1}
}

// CheckpointAxis builds the checkpoint-policy enumeration axis from a list
// of checkpoint counts: the zero (no-policy) point followed by a local and a
// TMR-voted policy per count. It is the canonical axis behind the service's
// ckpt_modes/ckpt_intervals knobs.
func CheckpointAxis(intervals []int) []faultmodel.CheckpointPolicy {
	out := []faultmodel.CheckpointPolicy{{}}
	for _, n := range intervals {
		out = append(out,
			faultmodel.CheckpointPolicy{Mode: faultmodel.CkptLocal, Interval: n},
			faultmodel.CheckpointPolicy{Mode: faultmodel.CkptTMR, Interval: n},
		)
	}
	return out
}

// Enumerate generates and evaluates every CLR-integrated candidate of one
// task type on the platform.
func Enumerate(lib *characterize.Library, taskType int, p *platform.Platform, cat *relmodel.Catalog, opt Options) ([]Candidate, error) {
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	hws := indicesOrAll(opt.HW, len(cat.HW))
	ssws := indicesOrAll(opt.SSW, len(cat.SSW))
	asws := indicesOrAll(opt.ASW, len(cat.ASW))
	// The checkpoint-policy axis multiplies the enumeration; a nil axis is
	// the single zero policy, which — together with a nil fault model —
	// routes through the legacy Evaluate so candidate order and metrics stay
	// bit-identical to the pre-subsystem engine.
	policies := opt.Checkpoints
	if policies == nil {
		policies = zeroPolicyAxis[:]
	}
	bases := lib.ImplsShared(taskType)
	size := 0
	for _, base := range bases {
		size += countBelow(opt.Modes, len(p.Types()[base.PETypeIndex].Modes))
	}
	out := make([]Candidate, 0, size*len(hws)*len(ssws)*len(asws)*len(policies))
	for _, base := range bases {
		if opt.ImplicitMaskingOverride >= 0 {
			base.ImplicitMasking = opt.ImplicitMaskingOverride
		}
		pt := p.Types()[base.PETypeIndex]
		modes := indicesOrAll(opt.Modes, len(pt.Modes))
		for _, mode := range modes {
			if mode >= len(pt.Modes) {
				continue
			}
			for _, hw := range hws {
				for _, ssw := range ssws {
					for _, asw := range asws {
						asg := relmodel.Assignment{Mode: mode, HW: hw, SSW: ssw, ASW: asw}
						for _, ck := range policies {
							var m relmodel.Metrics
							var err error
							if opt.Faults == nil && !ck.Enabled() {
								m, err = relmodel.Evaluate(base, asg, pt, cat)
							} else {
								m, err = relmodel.EvaluateFM(base, asg, pt, cat, opt.Faults.For(pt.Name), ck)
							}
							if err != nil {
								return nil, fmt.Errorf("tdse: task type %d: %w", taskType, err)
							}
							out = append(out, Candidate{Base: base, Assignment: asg, Checkpoint: ck, Metrics: m})
						}
					}
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tdse: task type %d yielded no candidates", taskType)
	}
	return out, nil
}

// zeroPolicyAxis is the degenerate checkpoint axis of legacy enumerations.
var zeroPolicyAxis = [1]faultmodel.CheckpointPolicy{}

// countBelow counts the selected indices below n (all n when sel is nil):
// the DVFS modes Enumerate keeps for a PE type with n modes.
func countBelow(sel []int, n int) int {
	if sel == nil {
		return n
	}
	c := 0
	for _, i := range sel {
		if i < n {
			c++
		}
	}
	return c
}

func indicesOrAll(sel []int, n int) []int {
	if sel != nil {
		return sel
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Filter Pareto-filters candidates under the objective set, independently
// within each PE type (see the package comment), and returns the union.
func Filter(cands []Candidate, objectives []Objective) []Candidate {
	if len(objectives) == 0 {
		panic("tdse: empty objective set")
	}
	// Candidate indices grouped by PE type, groups in first-appearance
	// order; PE types are few, so a linear scan finds a group.
	var types []int
	var groups [][]int
	for i := range cands {
		pti := cands[i].Base.PETypeIndex
		g := 0
		for g < len(types) && types[g] != pti {
			g++
		}
		if g == len(types) {
			types, groups = append(types, pti), append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	k := len(objectives)
	var out []Candidate
	for _, g := range groups {
		flat := make([]float64, len(g)*k)
		pts := make([][]float64, len(g))
		for i, ci := range g {
			pts[i] = flat[i*k : (i+1)*k : (i+1)*k]
			for j, o := range objectives {
				pts[i][j] = Value(cands[ci].Metrics, o)
			}
		}
		for _, i := range pareto.Filter(pts) {
			out = append(out, cands[g[i]])
		}
	}
	return out
}

// Explore is Enumerate followed by Filter: the tDSE of one task type.
func Explore(lib *characterize.Library, taskType int, p *platform.Platform, cat *relmodel.Catalog, opt Options, objectives []Objective) ([]Candidate, error) {
	cands, err := Enumerate(lib, taskType, p, cat, opt)
	if err != nil {
		return nil, err
	}
	return Filter(cands, objectives), nil
}

// Library holds the Pareto-filtered implementation sets of every task type:
// the Ipf_t of §V.B, the input to pfCLR system-level DSE.
type Library struct {
	ByType [][]Candidate
}

// Build runs Explore for every task type of the characterization library.
func Build(lib *characterize.Library, p *platform.Platform, cat *relmodel.Catalog, opt Options, objectives []Objective) (*Library, error) {
	out := &Library{ByType: make([][]Candidate, lib.NumTypes())}
	for tt := 0; tt < lib.NumTypes(); tt++ {
		f, err := Explore(lib, tt, p, cat, opt, objectives)
		if err != nil {
			return nil, err
		}
		out.ByType[tt] = f
	}
	return out, nil
}

// Impls returns the filtered candidates of a task type.
func (l *Library) Impls(taskType int) []Candidate {
	if taskType < 0 || taskType >= len(l.ByType) {
		panic(fmt.Sprintf("tdse: task type %d out of range", taskType))
	}
	return l.ByType[taskType]
}

// Counts returns the number of Pareto implementations per task type
// (the bars of Fig. 9 and cells of TABLE IV).
func (l *Library) Counts() []int {
	out := make([]int, len(l.ByType))
	for i, s := range l.ByType {
		out[i] = len(s)
	}
	return out
}
