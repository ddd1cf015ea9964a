// Command perfbench is the repository's end-to-end benchmark: seeded job
// lists run through an in-process clrearlyd (service.New) or an in-process
// gateway fleet (gateway.New plus two gateway.Agent workers), each served on
// a loopback listener. Every front the clients receive is checked.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload proposed-mix|fcclr-large|gateway-mixed
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics with tracing off. With
// --trace 1 it runs the same job list with one client, records spans around
// every call into the program, replays each job through the public
// functions the daemon calls, and reports the per-layer metrics. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workDir holds the gateway's durable stores, relative to the checkout.
const workDir = ".bench_build/stores"

// setups is how many times one run brings the system up; setup_s is the
// median.
const setups = 5

// shaJobs is how many leading jobs of a list fronts_sha256 covers. Every
// run, traced or not, finishes at least this many.
const shaJobs = 24

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "job-list seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := jobList(*workload, *seed, 1, false); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(*workload, *seed, dur)
	} else {
		res, err = runEndToEnd(*workload, *seed, dur)
	}
	if err != nil {
		return err
	}
	return res.print(os.Stdout)
}

// endToEndMetrics are the --trace 0 metrics, as listed in BENCHMARK.json.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},           // median of the run's set-ups: servers up, /healthz answered, warm-up done
	{"job_p50_ms", "ms"},       // submit (open loop: due time) to front decoded
	{"job_tail_ms", "ms"},      // highest percentile with ≥ 10 samples beyond it
	{"jobs_per_s", "1/s"},      // checked jobs ÷ wall time
	{"alloc_mb_per_job", "MB"}, // runtime TotalAlloc delta ÷ checked jobs, whole process
	{"peak_rss_mb", "MB"},      // VmHWM of the process
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's report: human-readable lines, then the JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	lines     []string
}

func (r *result) note(format string, a ...any) { r.lines = append(r.lines, fmt.Sprintf(format, a...)) }

func (r *result) print(f *os.File) error {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(b))
	return err
}

// listLen is how many jobs to generate for a run: the open loop sends
// exactly rate × seconds, a closed loop takes jobs until time is up.
func listLen(workload string, dur time.Duration) int {
	if workload == wlGatewayMixed {
		return int(gatewayRate*dur.Seconds() + 0.5)
	}
	return 5000
}

// warmJobs is the warm-up size per workload: enough work that set-up time
// is not a handful of milliseconds of scheduling noise.
var warmJobs = map[string]int{wlProposedMix: 4, wlFcCLRLarge: 8, wlGatewayMixed: 64}

// bringUp starts the workload's system and runs its warm-up jobs, a fixed
// list from the disjoint warm-up seed range (the same for every seed and
// set-up, so set-up time does not depend on the seed). It returns the
// system and the set-up time.
func bringUp(workload string) (*target, time.Duration, error) {
	n := warmJobs[workload]
	warm, err := jobList(workload, 0, n, true)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	t, err := start(workload, workDir)
	if err != nil {
		return nil, 0, err
	}
	outs, _ := closedLoop(t, warm, concurrency, 0, n, 1, nil)
	for i, o := range outs {
		if err := checkOutcome(&warm[i], o); err != nil {
			_ = t.stop()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return t, time.Since(t0), nil
}

// closedLoop runs jobs with the given number of clients, each sending its
// next job only after the previous one returned. Clients take jobs in list
// order until dur has passed and at least minJobs were taken, then finish
// the list's current block of block jobs, so a run always measures whole
// blocks of a workload's fixed composition. after, when non-nil, runs on
// the client after each job (the traced pass's per-job bookkeeping). The
// returned slice is indexed like jobs[:taken]; the duration runs to the
// last job's completion.
func closedLoop(t *target, jobs []job, clients int, dur time.Duration, minJobs, block int, after func(*job, *outcome)) ([]*outcome, time.Duration) {
	outs := make([]*outcome, len(jobs))
	var mu sync.Mutex
	next, stopAt := 0, len(jobs)
	begin := time.Now()
	deadline := begin.Add(dur)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopAt == len(jobs) && next >= minJobs && time.Now().After(deadline) {
			stopAt = min(len(jobs), (next+block-1)/block*block)
		}
		if next >= stopAt {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				o := runJob(context.Background(), t.url, t.gateway, &jobs[i], time.Now())
				outs[i] = &o
				if after != nil {
					after(&jobs[i], &o)
				}
			}
		}()
	}
	wg.Wait()
	outs = outs[:next]
	return outs, lastDone(outs).Sub(begin)
}

// openLoop sends every job at its due offset from the start, whatever the
// state of earlier requests, and times each from its due time. It also
// returns how late the generator sent each request, in milliseconds.
func openLoop(t *target, jobs []job) ([]*outcome, time.Duration, []float64) {
	outs := make([]*outcome, len(jobs))
	late := make([]float64, len(jobs))
	var wg sync.WaitGroup
	begin := time.Now()
	for i := range jobs {
		due := begin.Add(jobs[i].Due)
		time.Sleep(time.Until(due))
		late[i] = ms(time.Since(due))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := runJob(context.Background(), t.url, t.gateway, &jobs[i], due)
			outs[i] = &o
		}(i)
	}
	wg.Wait()
	return outs, lastDone(outs).Sub(begin), late
}

func lastDone(outs []*outcome) time.Time {
	var last time.Time
	for _, o := range outs {
		if o.Done.After(last) {
			last = o.Done
		}
	}
	return last
}

// verify checks every outcome, including that a repeated spec received
// byte-identical front JSON. It returns the indices that passed and one
// line per failure.
func verify(jobs []job, outs []*outcome) (ok []int, failures []string) {
	for i, o := range outs {
		err := checkOutcome(&jobs[i], o)
		if err == nil && jobs[i].RepeatOf >= 0 {
			if string(outs[jobs[i].RepeatOf].Front) != string(o.Front) {
				err = fmt.Errorf("job %d repeats job %d but its front JSON differs", i, jobs[i].RepeatOf)
			}
		}
		if err != nil {
			failures = append(failures, fmt.Sprintf("job %d: %v", i, err))
			continue
		}
		ok = append(ok, i)
	}
	return ok, failures
}

// windowSamples is the size of the latency windows: job_p50_ms and
// job_tail_ms are medians over consecutive windows of this many requests
// (by start time), so a short stall of the shared machine moves one window,
// not the figure. A run with fewer than two windows' worth is one window.
const windowSamples = 200

// latencyStats returns the median over windows of each window's median and
// tail latency, and a line saying which percentile the tail is and over
// how many samples.
func latencyStats(outs []*outcome, ok []int) (p50, tailV float64, desc string) {
	sort.Slice(ok, func(a, b int) bool { return outs[ok[a]].Origin.Before(outs[ok[b]].Origin) })
	w := max(1, len(ok)/windowSamples)
	var p50s, tails []float64
	var pct float64
	least := len(ok)
	for k := 0; k < w; k++ {
		chunk := ok[k*len(ok)/w : (k+1)*len(ok)/w]
		lat := make([]float64, len(chunk))
		for i, idx := range chunk {
			lat[i] = ms(outs[idx].latency())
		}
		sort.Float64s(lat)
		var v float64
		var beyond int
		pct, v, beyond = tail(lat)
		least = min(least, beyond)
		p50s = append(p50s, quantile(lat, 0.5))
		tails = append(tails, v)
	}
	desc = fmt.Sprintf("median over %d window(s) of %d samples in all; tail is each window's P%g (at least %d beyond it)",
		w, len(ok), pct, least)
	return median(p50s), median(tails), desc
}

// runEndToEnd is the --trace 0 run: set up setups times, then drive the
// workload for dur with tracing off and report the end-to-end metrics.
func runEndToEnd(workload string, seed int64, dur time.Duration) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	var t *target
	var setupS []float64
	for k := 0; k < setups; k++ {
		var d time.Duration
		var err error
		if t, d, err = bringUp(workload); err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		if k < setups-1 {
			if err := t.stop(); err != nil {
				return nil, err
			}
		}
	}
	jobs, err := jobList(workload, seed, listLen(workload, dur), false)
	if err != nil {
		_ = t.stop()
		return nil, err
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var outs []*outcome
	var wall time.Duration
	var late []float64
	if workload == wlGatewayMixed {
		outs, wall, late = openLoop(t, jobs)
	} else {
		outs, wall = closedLoop(t, jobs, concurrency, dur, shaJobs, blockSize(workload), nil)
	}
	runtime.ReadMemStats(&after)
	if err := t.stop(); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	ok, failures := verify(jobs, outs)
	p50, tailV, tailDesc := latencyStats(outs, ok)
	sha := frontsSHA256(jobs, outs, shaJobs)

	res.Attempted = len(outs)
	res.Failed = len(outs) - len(ok)
	res.Correct = res.Failed == 0 && sha != ""
	jobsDone := float64(max(len(ok), 1))
	vals := map[string]float64{
		"setup_s":          median(setupS),
		"job_p50_ms":       p50,
		"job_tail_ms":      tailV,
		"jobs_per_s":       float64(len(ok)) / wall.Seconds(),
		"alloc_mb_per_job": float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / jobsDone,
		"peak_rss_mb":      rss,
	}
	for _, m := range endToEndMetrics {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}

	props := properties(jobs[:len(outs)])
	res.note("workload %s seed %d: %d jobs attempted over %.2fs (%s)", workload, seed, len(outs), wall.Seconds(), loopKind(workload))
	res.note("list: %d unique specs, tdse.repeat_share %.3f, designed dedup share %.3f, SSE share %.3f, tasks %d-%d (mean %.1f)",
		props.UniqueSpecs, props.RepeatShare, props.DedupShare, props.SSEShare, props.TasksMin, props.TasksMax, props.TasksMean)
	res.note("setup_s runs: %s", floats(setupS))
	res.note("job_p50_ms and job_tail_ms: %s", tailDesc)
	if late != nil {
		sort.Float64s(late)
		res.note("open-loop generator lateness P99 %.3f ms", quantile(late, 0.99))
	}
	res.note("fail_frac %.4f (%d of %d)", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, f := range failures {
		res.note("FAIL %s", f)
	}
	res.note("fronts_sha256 %s %s (first %d jobs)", workload, orNone(sha), shaJobs)
	for _, m := range endToEndMetrics {
		res.note("%-18s %12.4f %s", m.name, vals[m.name], m.unit)
	}
	return res, nil
}

func loopKind(workload string) string {
	if workload == wlGatewayMixed {
		return fmt.Sprintf("open loop, Poisson %.0f/s, %d agents", gatewayRate, concurrency)
	}
	return fmt.Sprintf("closed loop, %d clients, %d daemon workers", concurrency, concurrency)
}

// peakRSSMB reads the process's peak resident set (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func floats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(s, " ")
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
