package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/service"
	"repro/internal/taskgraph"
)

// Workload names, as passed to --workload.
const (
	wlProposedMix  = "proposed-mix"
	wlFcCLRLarge   = "fcclr-large"
	wlGatewayMixed = "gateway-mixed"
)

var workloadNames = []string{wlProposedMix, wlFcCLRLarge, wlGatewayMixed}

// gatewayRate is the fixed open-loop arrival rate of gateway-mixed, in
// requests per second. It sits at about half the rate at which the
// two-agent fleet stops keeping up with this request mix.
const gatewayRate = 150.0

// blockSize is the length of a workload's fixed-composition block; closed
// loops stop at a block boundary.
func blockSize(workload string) int {
	switch workload {
	case wlProposedMix:
		return len(proposedSlots)
	case wlFcCLRLarge:
		return fcclrBlock
	}
	return 1
}

// warmSeedOffset moves every GA, graph and library seed of a warm-up list
// out of the range a timed list draws from, so warm-up never fills a cache
// with a timed job's inputs.
const warmSeedOffset = int64(1) << 40

// job is one request of a job list.
type job struct {
	Index int
	Spec  service.JobSpec // normalized
	Body  []byte          // JSON body as submitted
	Hash  string          // client-side Normalize()+Hash()
	// LibKey names the candidate-set inputs of the job's tDSE ("" when the
	// method builds no library).
	LibKey string
	// RepeatOf is the index of the earlier job this request repeats, or -1.
	RepeatOf int
	// Due is the open-loop send offset from the start of the run.
	Due time.Duration
	// SSE marks requests that wait on /events instead of /wait.
	SSE    bool
	Tenant int
}

// jobList generates the first n requests of a workload's list for a seed.
// For the closed-loop workloads a shorter list is a prefix of a longer one;
// the open loop spreads its n arrivals over n/gatewayRate seconds. warm
// selects the disjoint warm-up seed range.
func jobList(workload string, seed int64, n int, warm bool) ([]job, error) {
	salt := int64(0)
	if warm {
		salt = warmSeedOffset
	}
	rng := rand.New(rand.NewSource(seed*7919 + salt + int64(len(workload))))
	var specs []jobDraft
	switch workload {
	case wlProposedMix:
		specs = proposedMix(rng, n, salt)
	case wlFcCLRLarge:
		specs = fcclrLarge(rng, n, salt)
	case wlGatewayMixed:
		specs = gatewayMixed(rng, n, salt)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	out := make([]job, len(specs))
	for i, d := range specs {
		j := job{Index: i, RepeatOf: d.repeatOf, Due: d.due, SSE: d.sse, Tenant: d.tenant}
		if d.repeatOf >= 0 {
			src := out[d.repeatOf]
			j.Spec, j.Body, j.Hash, j.LibKey = src.Spec, src.Body, src.Hash, src.LibKey
			out[i] = j
			continue
		}
		body, err := json.Marshal(&d.spec)
		if err != nil {
			return nil, err
		}
		spec := d.spec
		if err := spec.Normalize(); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		j.Spec, j.Body, j.Hash, j.LibKey = spec, body, spec.Hash(), libKey(&spec)
		out[i] = j
	}
	return out, nil
}

type jobDraft struct {
	spec     service.JobSpec
	repeatOf int
	due      time.Duration
	sse      bool
	tenant   int
}

// proposedSlots is the fixed composition of a proposed-mix block: four
// each of sobel, jpeg and synthetic, each tDSE objective set four times,
// three with the checkpoint axis and two on the FPGA platform family. The
// checkpoint and FPGA variants sit on sobel and jpeg, whose candidate-set
// inputs recur; on a synthetic library the checkpoint axis alone costs
// about half a second of tDSE and would swamp the mix.
var proposedSlots = []struct {
	app        string
	set        int
	ckpt, fpga bool
}{
	{"sobel", 0, true, false}, {"sobel", 1, true, false}, {"sobel", 2, false, true}, {"sobel", 0, false, false},
	{"jpeg", 2, true, false}, {"jpeg", 0, false, true}, {"jpeg", 1, false, false}, {"jpeg", 2, false, false},
	{"synthetic", 0, false, false}, {"synthetic", 1, false, false}, {"synthetic", 2, false, false}, {"synthetic", 1, false, false},
}

// proposedMix draws unique proposed-method specs in blocks of the fixed
// proposedSlots composition, shuffled, with fresh GA seeds and the four
// synthetic graphs drawn one from each quarter of 10–30 tasks. Fixing the
// composition keeps the work per block, and so the figures of different
// seeds, close together.
func proposedMix(rng *rand.Rand, n int, salt int64) []jobDraft {
	out := make([]jobDraft, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(proposedSlots)) {
			slot := proposedSlots[i]
			s := service.JobSpec{
				App:       slot.app,
				Method:    "proposed",
				TDSESet:   slot.set,
				CkptModes: slot.ckpt,
				Pop:       48,
				Gens:      24,
				Seed:      1 + salt + rng.Int63n(1<<40),
			}
			if slot.fpga {
				s.Platform, s.Catalog = "fpga", "fpga"
			}
			if s.App == "synthetic" {
				quarter := i % 4
				s.Tasks = 10 + int((float64(quarter)+rng.Float64())*21/4)
				s.GraphSeed = 1 + salt + rng.Int63n(1<<40)
			}
			out = append(out, jobDraft{spec: s, repeatOf: -1})
		}
	}
	return out[:n]
}

const fcclrBlock = 6

// fcclrLarge draws unique fcCLR specs on fresh synthetic graphs in blocks
// of six, shuffled: one task count from each sixth of 40–60, the second
// sixth with a third objective power, the fifth with lifetime.
func fcclrLarge(rng *rand.Rand, n int, salt int64) []jobDraft {
	out := make([]jobDraft, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(fcclrBlock) {
			s := service.JobSpec{
				App:       "synthetic",
				Method:    "fcclr",
				Tasks:     40 + int((float64(i)+rng.Float64())*21/fcclrBlock),
				GraphSeed: 1 + salt + rng.Int63n(1<<40),
				Pop:       40,
				Gens:      24,
				Seed:      1 + salt + rng.Int63n(1<<40),
			}
			switch i {
			case 1:
				s.Objectives = []string{"makespan", "errprob", "power"}
			case 4:
				s.Objectives = []string{"makespan", "errprob", "lifetime"}
			}
			out = append(out, jobDraft{spec: s, repeatOf: -1})
		}
	}
	return out[:n]
}

// Repeats in gateway-mixed reuse a fresh spec due between repeatMinAge and
// repeatMaxAge earlier: old enough to have finished, young enough that its
// front is still held by the gateway's LRU (256 fronts, about 3.4 s of
// fresh specs at this rate) or its store (1024 results, about 13 s). So a
// repeat is a read of a finished spec, not new or attached work.
const (
	repeatMinAge = 1.0 // seconds
	repeatMaxAge = 8.0
)

// gatewayMixed draws the open-loop request stream: arrival offsets of a
// Poisson process at gatewayRate conditioned on exactly n arrivals (sorted
// uniform offsets over n/gatewayRate seconds), alternating fresh tiny fcCLR
// specs with repeats of an earlier fresh spec. A quarter of the requests
// wait on SSE /events, the rest on /wait.
func gatewayMixed(rng *rand.Rand, n int, salt int64) []jobDraft {
	window := float64(n) / gatewayRate
	offs := make([]float64, n)
	for i := range offs {
		offs[i] = rng.Float64() * window
	}
	sort.Float64s(offs)
	apps := []string{"sobel", "jpeg", "synthetic"}
	out := make([]jobDraft, n)
	var fresh []int
	for i := range out {
		d := jobDraft{
			repeatOf: -1,
			due:      time.Duration(offs[i] * float64(time.Second)),
			sse:      rng.Intn(4) == 0,
			tenant:   rng.Intn(len(fleetTenants)),
		}
		lo := sort.Search(len(fresh), func(k int) bool { return offs[fresh[k]] >= offs[i]-repeatMaxAge })
		hi := sort.Search(len(fresh), func(k int) bool { return offs[fresh[k]] > offs[i]-repeatMinAge })
		if i%2 == 1 && hi > lo {
			d.repeatOf = fresh[lo+rng.Intn(hi-lo)]
		} else {
			d.spec = service.JobSpec{
				App:    apps[rng.Intn(len(apps))],
				Method: "fcclr",
				Pop:    8 + 2*rng.Intn(5),
				Gens:   2 + rng.Intn(4),
				Seed:   1 + salt + rng.Int63n(1<<40),
			}
			if d.spec.App == "synthetic" {
				d.spec.Tasks = 10
				d.spec.GraphSeed = 1 + salt + rng.Int63n(1<<40)
			}
			fresh = append(fresh, i)
		}
		out[i] = d
	}
	return out
}

// libKey identifies the inputs of a spec's task-level library: the
// characterization library (fixed for sobel/jpeg, seeded for synthetic),
// platform family, catalog, objective set and checkpoint axis. Two jobs
// with equal keys enumerate and filter identical candidate sets.
func libKey(s *service.JobSpec) string {
	if s.Method != "proposed" {
		return ""
	}
	lib := s.App
	if s.App == "synthetic" {
		seed := s.LibSeed
		if seed == 0 {
			seed = s.Seed + 500
		}
		lib = fmt.Sprintf("synthetic/%d", seed)
	}
	return fmt.Sprintf("%s|%s|%s|%d|%v|%v", lib, s.Platform, s.Catalog, s.TDSESet, s.CkptModes, s.CkptIntervals)
}

// listProps are the designed properties of a job list, printed with every
// run so a reader can see what the timed prefix exercised.
type listProps struct {
	Jobs        int
	UniqueSpecs int
	// RepeatShare is the share of tDSE jobs whose candidate-set inputs
	// repeat an earlier job's (tdse.repeat_share).
	RepeatShare float64
	// DedupShare is the designed share of requests that repeat a spec.
	DedupShare         float64
	TasksMin, TasksMax int
	TasksMean          float64
	SSEShare           float64
}

func properties(jobs []job) listProps {
	p := listProps{Jobs: len(jobs), TasksMin: math.MaxInt}
	seenSpec := map[string]bool{}
	seenLib := map[string]bool{}
	libJobs, libRepeats, sse, tasks := 0, 0, 0, 0
	for _, j := range jobs {
		seenSpec[j.Hash] = true
		if j.RepeatOf >= 0 {
			p.DedupShare++
		}
		if j.SSE {
			sse++
		}
		if j.LibKey != "" && j.RepeatOf < 0 {
			libJobs++
			if seenLib[j.LibKey] {
				libRepeats++
			}
			seenLib[j.LibKey] = true
		}
		t := taskCount(&j.Spec)
		tasks += t
		p.TasksMin = min(p.TasksMin, t)
		p.TasksMax = max(p.TasksMax, t)
	}
	p.UniqueSpecs = len(seenSpec)
	if len(jobs) > 0 {
		p.DedupShare /= float64(len(jobs))
		p.SSEShare = float64(sse) / float64(len(jobs))
		p.TasksMean = float64(tasks) / float64(len(jobs))
	} else {
		p.TasksMin = 0
	}
	if libJobs > 0 {
		p.RepeatShare = float64(libRepeats) / float64(libJobs)
	}
	return p
}

// builtinTasks is the task count of each built-in application.
var builtinTasks = map[string]int{"sobel": taskgraph.Sobel().NumTasks(), "jpeg": taskgraph.JPEG().NumTasks()}

// taskCount is the application size of a spec.
func taskCount(s *service.JobSpec) int {
	if n, ok := builtinTasks[s.App]; ok {
		return n
	}
	return s.Tasks
}
