package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/tdse"
)

// span is one traced interval. Spans of one job share its index; Parent is
// the ID of the span that caused it, or -1 for a root.
type span struct {
	ID, Parent int
	Job        int
	Name       string
	Start, End time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(job, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start, End: end})
	return id
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover (the
// union of their intervals, clipped to the parent).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, k int) bool { return ivs[i].a.Before(ivs[k].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// layerMetric is one per-layer metric of the traced run. Moves names the
// end-to-end metric and workload a change in this layer should move; On
// lists the workloads whose traced run exercises the layer (elsewhere it
// reads 0 and is marked n/a).
type layerMetric struct {
	Name, Unit, Better string
	Moves              string
	On                 []string
}

var (
	daemonWLs = []string{wlProposedMix, wlFcCLRLarge}
	allWLs    = []string{wlProposedMix, wlFcCLRLarge, wlGatewayMixed}
	tdseWLs   = []string{wlProposedMix}
	gwWLs     = []string{wlGatewayMixed}
)

// layerMetrics is the per-layer metric table, in report order.
var layerMetrics = []layerMetric{
	{"service.admit_ms", "ms", "lower", "job_p50_ms on proposed-mix, fcclr-large", daemonWLs},
	{"service.queue_wait_ms", "ms", "lower", "job_p50_ms on proposed-mix, fcclr-large", daemonWLs},
	{"service.run_ms", "ms", "lower", "job_p50_ms on proposed-mix, fcclr-large", daemonWLs},
	{"service.fetch_ms", "ms", "lower", "job_p50_ms on proposed-mix, fcclr-large", daemonWLs},
	{"service.front_kb", "KB", "lower", "job_p50_ms on proposed-mix, fcclr-large", daemonWLs},
	{"tdse.enumerate_ms", "ms", "lower", "job_p50_ms, jobs_per_s on proposed-mix; no change on fcclr-large", tdseWLs},
	{"tdse.filter_ms", "ms", "lower", "job_p50_ms, jobs_per_s on proposed-mix; no change on fcclr-large", tdseWLs},
	{"tdse.candidates", "count/job", "lower", "job_p50_ms, jobs_per_s on proposed-mix; no change on fcclr-large", tdseWLs},
	{"tdse.kept_ratio", "ratio", "lower", "job_p50_ms, jobs_per_s on proposed-mix; no change on fcclr-large", tdseWLs},
	{"tdse.repeat_share", "ratio", "higher", "job_p50_ms, jobs_per_s on proposed-mix; no change on fcclr-large", tdseWLs},
	{"relmodel.chain_pairs", "count/job", "lower", "proposed-mix first, then fcclr-large", daemonWLs},
	{"relmodel.paired_ratio", "ratio", "higher", "proposed-mix first, then fcclr-large", daemonWLs},
	{"relmodel.us_per_chain", "us", "lower", "proposed-mix first, then fcclr-large", tdseWLs},
	{"faultmodel.evals", "count/job", "lower", "proposed-mix first, then fcclr-large", daemonWLs},
	{"core.build_ms", "ms", "lower", "job_p50_ms, alloc_mb_per_job on fcclr-large", allWLs},
	{"core.pfclr_stage_ms", "ms", "lower", "job_p50_ms, alloc_mb_per_job on fcclr-large", tdseWLs},
	{"core.fcclr_stage_ms", "ms", "lower", "job_p50_ms, alloc_mb_per_job on fcclr-large", allWLs},
	{"core.metric_cache_hit_ratio", "ratio", "higher", "job_p50_ms, alloc_mb_per_job on fcclr-large", allWLs},
	{"core.fitness_cache_hit_ratio", "ratio", "higher", "job_p50_ms, alloc_mb_per_job on fcclr-large", daemonWLs},
	{"core.delta_reuse_ratio", "ratio", "higher", "job_p50_ms, alloc_mb_per_job on fcclr-large", daemonWLs},
	{"core.delta_prefix_ratio", "ratio", "higher", "job_p50_ms, alloc_mb_per_job on fcclr-large", daemonWLs},
	{"core.evaluate_mapping_us", "us", "lower", "job_p50_ms, alloc_mb_per_job on fcclr-large", allWLs},
	{"moea.gen_ms", "ms", "lower", "job_p50_ms on fcclr-large", allWLs},
	{"moea.evaluations", "count/job", "lower", "job_p50_ms on fcclr-large", allWLs},
	{"moea.sort_ms", "ms/job", "lower", "job_p50_ms on fcclr-large", allWLs},
	{"moea.archive_ms", "ms/job", "lower", "job_p50_ms on fcclr-large", allWLs},
	{"gateway.admit_ms", "ms", "lower", "job_p50_ms, job_tail_ms on gateway-mixed", gwWLs},
	{"gateway.queue_wait_ms", "ms", "lower", "job_p50_ms, job_tail_ms on gateway-mixed", gwWLs},
	{"gateway.run_ms", "ms", "lower", "job_p50_ms, job_tail_ms on gateway-mixed", gwWLs},
	{"gateway.dedup_hit_ratio", "ratio", "higher", "job_p50_ms, job_tail_ms on gateway-mixed", gwWLs},
	{"gateway.leases_granted", "count/job", "lower", "job_p50_ms, job_tail_ms on gateway-mixed", gwWLs},
	{"gateway.leases_expired", "count", "lower", "job_p50_ms, job_tail_ms on gateway-mixed", gwWLs},
	{"gateway.rejects", "count", "lower", "job_p50_ms, job_tail_ms on gateway-mixed", gwWLs},
	{"store.appends", "count/job", "lower", "job_p50_ms, job_tail_ms on gateway-mixed", gwWLs},
	{"store.syncs", "count/job", "lower", "job_p50_ms, job_tail_ms on gateway-mixed", gwWLs},
	{"store.wal_kb", "KB/job", "lower", "job_p50_ms, job_tail_ms on gateway-mixed", gwWLs},
	{"go.gc_cycles", "count/job", "lower", "alloc_mb_per_job, job_tail_ms on every workload", allWLs},
	{"go.gc_pause_ms", "ms/job", "lower", "alloc_mb_per_job, job_tail_ms on every workload", allWLs},
	{"loadgen.late_p99_ms", "ms", "lower", "harness health: job_tail_ms on gateway-mixed", gwWLs},
	{"trace.overhead_pct", "%", "lower", "harness health: traced vs untraced jobs_per_s", allWLs},
}

// counters is the /metrics state of the system under test at one instant.
type counters struct {
	d daemonMetrics
	g gatewayMetrics
}

func readCounters(t *target) (counters, error) {
	var c counters
	if t.gateway {
		return c, fetchMetrics(t.url, &c.g)
	}
	return c, fetchMetrics(t.url, &c.d)
}

// layerTotals accumulates the traced pass's per-job observations.
type layerTotals struct {
	admit, queue, run, fetch, frontKB []float64
	enumMS, filterMS, buildMS         []float64
	stageMS                           map[string][]float64
	genMS                             []float64
	enumerated, kept, evals           float64
	libJobs, replayed                 int
	enumPairs, enumMicros             opt
	mapCalls                          int
	mapTime                           time.Duration
	metricHits, metricMisses          opt

	// /metrics deltas summed over the traced jobs.
	fitHits, fitMisses                opt
	reuse, prefix, full, paired, solo opt
	fmEvals, sortNS, archiveNS        opt
	attach, cacheHits, storeHits      opt
	misses, granted, expired, rejects opt
	appends, syncs, walBytes          opt
}

// runTraced is the --trace 1 run. Phase A drives the job list untraced
// with one client (the overhead baseline and the GC counters); phase B
// drives it again on a fresh system with one client, recording spans from
// client clocks and JobWire timestamps, reading /metrics around every job,
// and replaying each fresh job in-process through service.Build,
// tdse.Enumerate/Filter, service.ExecuteOnHooks and core.EvaluateMapping.
// For gateway-mixed a short phase C runs the open loop to measure how late
// the generator sends.
func runTraced(workload string, seed int64, dur time.Duration) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	jobs, err := jobList(workload, seed, listLen(workload, dur), false)
	if err != nil {
		return nil, err
	}
	durA, durB := dur*3/10, dur*6/10
	var failures []string

	// Phase A: untraced, one client.
	t, _, err := bringUp(workload)
	if err != nil {
		return nil, err
	}
	var msA, msB runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msA)
	outsA, _ := closedLoop(t, jobs, 1, durA, 1, 1, nil)
	runtime.ReadMemStats(&msB)
	if err := t.stop(); err != nil {
		return nil, err
	}
	_, fA := verify(jobs, outsA)
	failures = append(failures, fA...)
	gcJobs := float64(len(outsA))

	// Phase B: traced, one client.
	if t, _, err = bringUp(workload); err != nil {
		return nil, err
	}
	tr := &tracer{}
	tot := newLayerTotals()
	var mu sync.Mutex
	var prev counters
	if prev, err = readCounters(t); err != nil {
		_ = t.stop()
		return nil, err
	}
	var hookErr error
	outsB, _ := closedLoop(t, jobs, 1, durB, shaJobs, 1, func(j *job, o *outcome) {
		mu.Lock()
		defer mu.Unlock()
		if hookErr != nil {
			return
		}
		cur, err := readCounters(t)
		if err != nil {
			hookErr = err
			return
		}
		tot.addCounters(t.gateway, prev, cur)
		recordHTTP(tr, tot, t.gateway, j, o)
		if o.Err == nil && j.RepeatOf < 0 && !o.Job.Cached {
			if err := replay(t, tr, tot, j, o); err != nil {
				failures = append(failures, fmt.Sprintf("job %d replay: %v", j.Index, err))
			}
		}
		// Replays move the same process-wide counters; start the next
		// job's delta after them.
		if prev, err = readCounters(t); err != nil {
			hookErr = err
		}
	})
	if err := t.stop(); err != nil {
		return nil, err
	}
	if hookErr != nil {
		return nil, hookErr
	}
	_, fB := verify(jobs, outsB)
	failures = append(failures, fB...)

	// Phase C (gateway-mixed): the open loop, for generator lateness.
	lateP99 := 0.0
	attempted := len(outsA) + len(outsB)
	if workload == wlGatewayMixed {
		if t, _, err = bringUp(workload); err != nil {
			return nil, err
		}
		n := int(gatewayRate * (dur - durA - durB).Seconds())
		outsC, _, late := openLoop(t, jobs[:n])
		if err := t.stop(); err != nil {
			return nil, err
		}
		_, fC := verify(jobs, outsC)
		failures = append(failures, fC...)
		sort.Float64s(late)
		lateP99 = quantile(late, 0.99)
		attempted += len(outsC)
	}

	shaB := frontsSHA256(jobs, outsB, shaJobs)
	vals := tot.values(workload, jobs[:len(outsB)])
	vals["go.gc_cycles"] = present(float64(msB.NumGC-msA.NumGC) / gcJobs)
	vals["go.gc_pause_ms"] = present(float64(msB.PauseTotalNs-msA.PauseTotalNs) / 1e6 / gcJobs)
	vals["loadgen.late_p99_ms"] = present(lateP99)
	vals["trace.overhead_pct"] = present(overheadPct(outsA, outsB))

	res.Attempted = attempted
	res.Failed = len(failures)
	res.Correct = res.Failed == 0 && shaB != ""
	res.note("traced workload %s seed %d, one client: phase A %d jobs untraced, phase B %d jobs traced and replayed",
		workload, seed, len(outsA), len(outsB))
	for _, f := range failures {
		res.note("FAIL %s", f)
	}
	res.note("fronts_sha256 %s %s (first %d jobs, traced)", workload, orNone(shaB), shaJobs)
	res.note("self time by span over %d traced jobs:", len(outsB))
	selfs := selfTimes(tr.spans)
	for _, name := range sortedKeys(selfs) {
		res.note("  %-26s %10.2f ms", name, ms(selfs[name]))
	}
	res.note("%-30s %14s %-10s %s", "per-layer metric", "value", "unit", "should move")
	for _, m := range layerMetrics {
		v := vals[m.Name]
		shown := fmt.Sprintf("%14.4f", v.v)
		switch {
		case !slices.Contains(m.On, workload):
			shown, v = fmt.Sprintf("%14s", "n/a"), opt{}
		case !v.ok:
			shown = fmt.Sprintf("%14s", "absent")
		}
		res.note("%-30s %s %-10s %s", m.Name, shown, m.Unit, m.Moves)
		res.Metrics[m.Name] = metric{v.v, m.Unit}
	}
	return res, nil
}

// overheadPct compares the untraced and traced one-client passes on the
// jobs both ran (the common list prefix): the traced pass's jobs_per_s
// deficit in percent, where a job's time is its submit-to-front time, so
// out-of-band tracing work between jobs is excluded.
func overheadPct(a, b []*outcome) float64 {
	var busyA, busyB time.Duration
	for i := 0; i < len(a) && i < len(b); i++ {
		busyA += a[i].Done.Sub(a[i].Sent)
		busyB += b[i].Done.Sub(b[i].Sent)
	}
	if busyB <= 0 {
		return 0
	}
	return (1 - float64(busyA)/float64(busyB)) * 100
}

// newLayerTotals starts every /metrics accumulator at a present zero; a
// delta with an absent side makes its accumulator absent for good.
func newLayerTotals() *layerTotals {
	l := &layerTotals{stageMS: map[string][]float64{}}
	for _, o := range []*opt{
		&l.enumPairs, &l.enumMicros, &l.metricHits, &l.metricMisses,
		&l.fitHits, &l.fitMisses, &l.reuse, &l.prefix, &l.full, &l.paired, &l.solo,
		&l.fmEvals, &l.sortNS, &l.archiveNS, &l.attach, &l.cacheHits, &l.storeHits,
		&l.misses, &l.granted, &l.expired, &l.rejects, &l.appends, &l.syncs, &l.walBytes,
	} {
		*o = present(0)
	}
	return l
}

// addCounters adds the /metrics delta between two readings.
func (l *layerTotals) addCounters(gw bool, a, b counters) {
	d, e := a.d, b.d
	if gw {
		g, h := a.g, b.g
		l.attach = l.attach.add(h.Dedup.InflightAttach.sub(g.Dedup.InflightAttach))
		l.cacheHits = l.cacheHits.add(h.Dedup.CacheHits.sub(g.Dedup.CacheHits))
		l.storeHits = l.storeHits.add(h.Dedup.StoreHits.sub(g.Dedup.StoreHits))
		l.misses = l.misses.add(h.Dedup.Misses.sub(g.Dedup.Misses))
		l.granted = l.granted.add(h.Leases.Granted.sub(g.Leases.Granted))
		l.expired = l.expired.add(h.Leases.Expired.sub(g.Leases.Expired))
		rej := h.Rejects.Auth.add(h.Rejects.RateLimit).add(h.Rejects.Quota).add(h.Rejects.Backpressure).
			sub(g.Rejects.Auth.add(g.Rejects.RateLimit).add(g.Rejects.Quota).add(g.Rejects.Backpressure))
		l.rejects = l.rejects.add(rej)
		l.appends = l.appends.add(h.Store.Appends.sub(g.Store.Appends))
		l.syncs = l.syncs.add(h.Store.Syncs.sub(g.Store.Syncs))
		l.walBytes = l.walBytes.add(h.Store.WALBytes.sub(g.Store.WALBytes))
		l.sortNS = l.sortNS.add(h.Selection.SortNS.sub(g.Selection.SortNS))
		l.archiveNS = l.archiveNS.add(h.Selection.ArchiveNS.sub(g.Selection.ArchiveNS))
		return
	}
	l.fitHits = l.fitHits.add(e.Fitness.Hits.sub(d.Fitness.Hits))
	l.fitMisses = l.fitMisses.add(e.Fitness.Misses.sub(d.Fitness.Misses))
	l.reuse = l.reuse.add(e.Accel.DeltaParentReuse.sub(d.Accel.DeltaParentReuse))
	l.prefix = l.prefix.add(e.Accel.DeltaPrefixRuns.sub(d.Accel.DeltaPrefixRuns))
	l.full = l.full.add(e.Accel.DeltaFullRuns.sub(d.Accel.DeltaFullRuns))
	l.paired = l.paired.add(e.Accel.PairedSolves.sub(d.Accel.PairedSolves))
	l.solo = l.solo.add(e.Accel.SoloSolves.sub(d.Accel.SoloSolves))
	l.fmEvals = l.fmEvals.add(e.FaultModel.Evals.sub(d.FaultModel.Evals))
	l.sortNS = l.sortNS.add(e.Selection.SortNS.sub(d.Selection.SortNS))
	l.archiveNS = l.archiveNS.add(e.Selection.ArchiveNS.sub(d.Selection.ArchiveNS))
}

// recordHTTP records the HTTP-boundary spans of one request: admit from
// the client's clock, queue and run from the job's own timestamps, fetch
// from the finish timestamp to the decoded front. Server and client share
// this process's clock.
func recordHTTP(tr *tracer, tot *layerTotals, gw bool, j *job, o *outcome) {
	root := tr.add(j.Index, -1, "job", o.Sent, o.Done)
	tr.add(j.Index, root, "admit", o.Sent, o.Admitted)
	tot.admit = append(tot.admit, ms(o.Admitted.Sub(o.Sent)))
	w := o.Job
	if w.StartedAt != nil && w.FinishedAt != nil && !w.Cached {
		tr.add(j.Index, root, "queue", w.SubmittedAt, *w.StartedAt)
		tr.add(j.Index, root, "run", *w.StartedAt, *w.FinishedAt)
		tr.add(j.Index, root, "fetch", *w.FinishedAt, o.Done)
		tot.queue = append(tot.queue, ms(w.StartedAt.Sub(w.SubmittedAt)))
		tot.run = append(tot.run, ms(w.FinishedAt.Sub(*w.StartedAt)))
		tot.fetch = append(tot.fetch, ms(o.Done.Sub(*w.FinishedAt)))
	}
	tot.frontKB = append(tot.frontKB, float64(len(o.Front))/1000)
}

// replay re-runs a fresh job in-process through the public functions the
// daemon's worker calls, timing each, and checks that it reproduces the
// served front.
func replay(t *target, tr *tracer, tot *layerTotals, j *job, o *outcome) error {
	spec := j.Spec
	root := tr.add(j.Index, -1, "replay", time.Now(), time.Time{})
	defer func() { tr.mu.Lock(); tr.spans[root].End = time.Now(); tr.mu.Unlock() }()

	b0 := time.Now()
	inst, flib, err := service.Build(&spec)
	b1 := time.Now()
	if err != nil {
		return err
	}
	tr.add(j.Index, root, "service.Build", b0, b1)
	tdseTime := time.Duration(0)
	if flib != nil {
		d, err := replayTDSE(t, tr, tot, j.Index, root, inst, flib, &spec)
		if err != nil {
			return err
		}
		tdseTime = d
	}
	tot.buildMS = append(tot.buildMS, max(0, ms(b1.Sub(b0)-tdseTime)))

	var evMu sync.Mutex
	type ev struct {
		stage string
		at    time.Time
	}
	var events []ev
	hooks := service.RunHooks{Progress: func(e core.ProgressEvent) {
		evMu.Lock()
		events = append(events, ev{e.Stage, time.Now()})
		evMu.Unlock()
	}}
	x0 := time.Now()
	front, err := service.ExecuteOnHooks(context.Background(), inst, flib, &spec, hooks)
	x1 := time.Now()
	if err != nil {
		return err
	}
	exec := tr.add(j.Index, root, "service.ExecuteOnHooks", x0, x1)
	// Stage spans run from the previous stage's last event (or the call)
	// to the stage's own last event; generation spans are the gaps
	// between consecutive events of a stage.
	stageStart, stageID := x0, -1
	for i, e := range events {
		if i == 0 || events[i-1].stage != e.stage {
			if i > 0 {
				stageStart = events[i-1].at
			}
			stageID = tr.add(j.Index, exec, "stage."+e.stage, stageStart, e.at)
		} else {
			tr.add(j.Index, stageID, "moea.gen", events[i-1].at, e.at)
			tot.genMS = append(tot.genMS, ms(e.at.Sub(events[i-1].at)))
		}
		if i == len(events)-1 || events[i+1].stage != e.stage {
			tr.mu.Lock()
			tr.spans[stageID].End = e.at
			tr.mu.Unlock()
			tot.stageMS[e.stage] = append(tot.stageMS[e.stage], ms(e.at.Sub(stageStart)))
		}
	}
	var buf bytes.Buffer
	wire, err := json.Marshal(service.FrontToWire(front))
	if err != nil {
		return err
	}
	if err := json.Compact(&buf, wire); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), o.Front) {
		return fmt.Errorf("replayed front differs from the served front")
	}
	tot.evals += float64(front.Evaluations)
	tot.replayed++
	if hits, misses, ok := metricCacheStats(inst); ok {
		tot.metricHits = tot.metricHits.add(present(hits))
		tot.metricMisses = tot.metricMisses.add(present(misses))
	} else {
		tot.metricHits = opt{}
	}

	m0 := time.Now()
	for i, p := range front.Points {
		q, err := core.EvaluateMapping(inst, p.Genome)
		if err != nil {
			return fmt.Errorf("EvaluateMapping point %d: %w", i, err)
		}
		if q.MakespanUS != p.QoS.MakespanUS || q.ErrProb != p.QoS.ErrProb || q.EnergyUJ != p.QoS.EnergyUJ {
			return fmt.Errorf("EvaluateMapping point %d: QoS differs from the front's", i)
		}
	}
	m1 := time.Now()
	tr.add(j.Index, root, "core.EvaluateMapping", m0, m1)
	tot.mapCalls += len(front.Points)
	tot.mapTime += m1.Sub(m0)
	return nil
}

// replayTDSE re-runs the task-level DSE of a job type by type through
// tdse.Enumerate and tdse.Filter with the options service.Build uses,
// checks the result equals Build's library, and reads the chain solves
// the enumeration caused from /metrics. It returns the tDSE time.
func replayTDSE(t *target, tr *tracer, tot *layerTotals, idx, root int, inst *core.Instance, flib *tdse.Library, spec *service.JobSpec) (time.Duration, error) {
	opt := tdse.DefaultOptions()
	opt.Faults = spec.Faults
	if spec.CkptModes {
		opt.Checkpoints = tdse.CheckpointAxis(spec.CkptIntervals)
	}
	objs := tdse.StudyObjectiveSets()[spec.TDSESet]
	before, err := readCounters(t)
	if err != nil {
		return 0, err
	}
	var enum, filter time.Duration
	for tt := 0; tt < inst.Lib.NumTypes(); tt++ {
		e0 := time.Now()
		cands, err := tdse.Enumerate(inst.Lib, tt, inst.Platform, inst.Catalog, opt)
		e1 := time.Now()
		if err != nil {
			return 0, err
		}
		kept := tdse.Filter(cands, objs)
		e2 := time.Now()
		tr.add(idx, root, "tdse.enumerate", e0, e1)
		tr.add(idx, root, "tdse.filter", e1, e2)
		enum += e1.Sub(e0)
		filter += e2.Sub(e1)
		tot.enumerated += float64(len(cands))
		tot.kept += float64(len(kept))
		if !reflect.DeepEqual(kept, flib.ByType[tt]) {
			return 0, fmt.Errorf("task type %d: replayed Enumerate+Filter differs from Build's library", tt)
		}
	}
	after, err := readCounters(t)
	if err != nil {
		return 0, err
	}
	if !t.gateway {
		pairs := after.d.Accel.PairedSolves.add(after.d.Accel.SoloSolves).
			sub(before.d.Accel.PairedSolves.add(before.d.Accel.SoloSolves))
		tot.enumPairs = tot.enumPairs.add(pairs)
		tot.enumMicros = tot.enumMicros.add(present(float64(enum) / 1e3))
	}
	tot.enumMS = append(tot.enumMS, ms(enum))
	tot.filterMS = append(tot.filterMS, ms(filter))
	tot.libJobs++
	return enum + filter, nil
}

// metricCacheStats reads the replay instance's Markov-metric cache
// counters through its exported MetricsCacheStats method, looked up by
// name so the benchmark still builds, and reports the counter absent, if
// the method or its fields go away.
func metricCacheStats(inst *core.Instance) (hits, misses float64, ok bool) {
	m := reflect.ValueOf(inst).MethodByName("MetricsCacheStats")
	if !m.IsValid() || m.Type().NumIn() != 0 || m.Type().NumOut() != 1 {
		return 0, 0, false
	}
	st := m.Call(nil)[0]
	if st.Kind() != reflect.Struct {
		return 0, 0, false
	}
	h, mi := st.FieldByName("Hits"), st.FieldByName("Misses")
	if !h.IsValid() || !mi.IsValid() || !h.CanUint() || !mi.CanUint() {
		return 0, 0, false
	}
	return float64(h.Uint()), float64(mi.Uint()), true
}

// values turns the totals into the per-layer metric values.
func (l *layerTotals) values(workload string, jobs []job) map[string]opt {
	v := map[string]opt{}
	perJob := func(o opt) opt { return o.scale(1 / float64(max(len(jobs), 1))) }
	med := func(xs []float64) opt { return present(median(xs)) }
	mean := func(xs []float64) opt {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return present(s / float64(max(len(xs), 1)))
	}
	prefix := "service."
	if workload == wlGatewayMixed {
		prefix = "gateway."
	}
	v[prefix+"admit_ms"] = med(l.admit)
	v[prefix+"queue_wait_ms"] = med(l.queue)
	v[prefix+"run_ms"] = med(l.run)
	v["service.fetch_ms"] = med(l.fetch)
	v["service.front_kb"] = mean(l.frontKB)

	v["tdse.enumerate_ms"] = med(l.enumMS)
	v["tdse.filter_ms"] = med(l.filterMS)
	v["tdse.candidates"] = present(l.enumerated / float64(max(l.libJobs, 1)))
	v["tdse.kept_ratio"] = present(l.kept / max(l.enumerated, 1))
	v["tdse.repeat_share"] = present(properties(jobs).RepeatShare)

	v["relmodel.chain_pairs"] = perJob(l.paired.add(l.solo))
	v["relmodel.paired_ratio"] = l.paired.ratio(l.solo)
	v["relmodel.us_per_chain"] = opt{}
	if l.enumPairs.ok && l.enumPairs.v > 0 {
		v["relmodel.us_per_chain"] = present(l.enumMicros.v / l.enumPairs.v)
	}
	v["faultmodel.evals"] = perJob(l.fmEvals)

	v["core.build_ms"] = med(l.buildMS)
	v["core.pfclr_stage_ms"] = med(l.stageMS["pfclr"])
	v["core.fcclr_stage_ms"] = med(l.stageMS["fcclr"])
	v["core.metric_cache_hit_ratio"] = l.metricHits.ratio(l.metricMisses)
	v["core.fitness_cache_hit_ratio"] = l.fitHits.ratio(l.fitMisses)
	v["core.delta_reuse_ratio"] = l.reuse.ratio(l.prefix.add(l.full))
	v["core.delta_prefix_ratio"] = l.prefix.ratio(l.full)
	v["core.evaluate_mapping_us"] = present(float64(l.mapTime) / 1e3 / float64(max(l.mapCalls, 1)))

	v["moea.gen_ms"] = med(l.genMS)
	v["moea.evaluations"] = present(l.evals / float64(max(l.replayed, 1)))
	v["moea.sort_ms"] = perJob(l.sortNS.scale(1e-6))
	v["moea.archive_ms"] = perJob(l.archiveNS.scale(1e-6))

	hits := l.attach.add(l.cacheHits).add(l.storeHits)
	v["gateway.dedup_hit_ratio"] = hits.ratio(l.misses)
	v["gateway.leases_granted"] = perJob(l.granted)
	v["gateway.leases_expired"] = l.expired
	v["gateway.rejects"] = l.rejects
	v["store.appends"] = perJob(l.appends)
	v["store.syncs"] = perJob(l.syncs)
	v["store.wal_kb"] = perJob(l.walBytes.scale(1e-3))
	return v
}
