package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/service"
)

func TestJobListDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, err := jobList(w, 7, 60, false)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := jobList(w, 7, 60, false)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two lists for seed 7 differ", w)
		}
		c, _ := jobList(w, 8, 60, false)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same list", w)
		}
		if w != wlGatewayMixed { // the open loop's offsets depend on the length
			short, _ := jobList(w, 7, 20, false)
			if !reflect.DeepEqual(short, a[:20]) {
				t.Errorf("%s: a shorter list is not a prefix of a longer one", w)
			}
		}
		warm, _ := jobList(w, 7, 60, true)
		seen := map[string]bool{}
		for _, j := range a {
			seen[j.Hash] = true
		}
		for _, j := range warm {
			if seen[j.Hash] {
				t.Errorf("%s: warm-up job %d repeats a timed spec", w, j.Index)
			}
		}
	}
}

func TestJobListDesign(t *testing.T) {
	jobs, err := jobList(wlProposedMix, 3, 120, false)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, fpga := 0, 0
	for _, j := range jobs {
		if j.Spec.CkptModes {
			ckpt++
		}
		if j.Spec.Platform == "fpga" {
			fpga++
		}
	}
	if ckpt != 30 || fpga != 20 {
		t.Errorf("proposed-mix: %d checkpoint and %d fpga specs in 120, want 30 and 20", ckpt, fpga)
	}
	if p := properties(jobs); p.UniqueSpecs != 120 || p.RepeatShare == 0 {
		t.Errorf("proposed-mix: %d unique specs, repeat share %v", p.UniqueSpecs, p.RepeatShare)
	}

	gw, _ := jobList(wlGatewayMixed, 3, 3000, false)
	p := properties(gw)
	if p.DedupShare < 0.45 || p.DedupShare > 0.5 || p.SSEShare < 0.2 || p.SSEShare > 0.3 {
		t.Errorf("gateway-mixed: dedup share %v, SSE share %v", p.DedupShare, p.SSEShare)
	}
	for _, j := range gw {
		if j.RepeatOf < 0 {
			continue
		}
		if age := (j.Due - gw[j.RepeatOf].Due).Seconds(); age < repeatMinAge || age > repeatMaxAge {
			t.Errorf("job %d repeats job %d due %.2fs before it", j.Index, j.RepeatOf, age)
		}
	}
	if last := gw[len(gw)-1].Due; last > 20*time.Second {
		t.Errorf("3000 requests at %v/s end at %v", gatewayRate, last)
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{1000, 99, 10},
		{999, 95, 49},
		{200, 95, 10},
		{199, 90, 19},
		{100, 90, 10},
		{99, 75, 24},
		{40, 75, 10},
		{20, 50, 10},
		{5, 100, 0},
	} {
		pct, v, beyond := tail(seq(c.n))
		if pct != c.pct || beyond != c.beyond {
			t.Errorf("n=%d: got P%g with %d beyond, want P%g with %d", c.n, pct, beyond, c.pct, c.beyond)
		}
		if want := float64(c.n - c.beyond); v != want {
			t.Errorf("n=%d: value %v, want %v", c.n, v, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	root := tr.add(0, -1, "job", at(0), at(100))
	tr.add(0, root, "a", at(10), at(40))
	tr.add(0, root, "b", at(30), at(60)) // overlaps a by 10 ms
	tr.add(0, root, "c", at(90), at(130))
	b := tr.add(0, root, "d", at(70), at(80))
	tr.add(0, b, "e", at(72), at(75))
	got := selfTimes(tr.spans)
	want := map[string]time.Duration{
		// The children cover 10–60, 70–80 and 90–100 (c clipped): 70 ms.
		"job": 30 * time.Millisecond,
		"a":   30 * time.Millisecond,
		"b":   30 * time.Millisecond,
		"c":   40 * time.Millisecond,
		"d":   7 * time.Millisecond,
		"e":   3 * time.Millisecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTolerantMetricsDecode(t *testing.T) {
	// A payload from a version without the fitness cache and with an
	// extra block the benchmark does not know.
	payload := `{"eval_accel":{"paired_solves":6,"solo_solves":2},
		"selection":{"sort_ns":1500000},"new_block":{"x":1}}`
	var m daemonMetrics
	if err := json.Unmarshal([]byte(payload), &m); err != nil {
		t.Fatal(err)
	}
	if m.Fitness.Hits.ok || m.Fitness.Misses.ok {
		t.Error("missing fitness_cache decoded as present")
	}
	if r := m.Fitness.Hits.ratio(m.Fitness.Misses); r.ok {
		t.Error("ratio of absent counters is present")
	}
	if r := m.Accel.PairedSolves.ratio(m.Accel.SoloSolves); !r.ok || r.v != 0.75 {
		t.Errorf("paired ratio %+v, want 0.75", r)
	}
	if m.Selection.ArchiveNS.ok || !m.Selection.SortNS.ok {
		t.Error("selection fields decoded wrongly")
	}
	if d := m.Selection.SortNS.sub(opt{}); d.ok {
		t.Error("delta against an absent reading is present")
	}
	var g gatewayMetrics
	if err := json.Unmarshal([]byte(`{"dedup":{"misses":3},"store":null}`), &g); err != nil {
		t.Fatal(err)
	}
	if !g.Dedup.Misses.ok || g.Store.Appends.ok {
		t.Error("gateway payload decoded wrongly")
	}
}

func TestCheckFront(t *testing.T) {
	good := []byte(`{"points":[{"objectives":[1,2]},{"objectives":[2,1]}],"evaluations":4}`)
	bad := []byte(`{"points":[{"objectives":[1,2]},{"objectives":[2,3]}],"evaluations":4}`)
	for _, c := range []struct {
		front []byte
		ok    bool
	}{{good, true}, {bad, false}, {[]byte(`{"points":[],"evaluations":4}`), false}} {
		var fw service.FrontWire
		if err := json.Unmarshal(c.front, &fw); err != nil {
			t.Fatal(err)
		}
		if err := checkFront(&fw, 2); (err == nil) != c.ok {
			t.Errorf("%s: check error %v, want ok=%v", c.front, err, c.ok)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the benchmark's own tables.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside perfbench:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, benchmark runs %v", names, workloadNames)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics listed, benchmark reports %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if p := spec.PerLayer[i]; p.Name != m.Name || p.Unit != m.Unit || p.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, benchmark reports %s %s %s", i, p, m.Name, m.Unit, m.Better)
		}
	}
	var units []string
	for _, m := range spec.EndToEnd {
		units = append(units, m.Name+" "+m.Unit)
	}
	var want []string
	for _, m := range endToEndMetrics {
		want = append(want, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(units, want) {
		t.Errorf("end_to_end %v, benchmark reports %v", units, want)
	}
}

func TestLatencyWindows(t *testing.T) {
	// 1000 requests one millisecond apart taking 10 ms each, except that
	// the third window of 200 stalls at 500 ms: the medians over the five
	// windows ignore the stall.
	base := time.Unix(0, 0)
	var outs []*outcome
	var ok []int
	for i := 0; i < 1000; i++ {
		lat := 10 * time.Millisecond
		if i >= 400 && i < 600 {
			lat = 500 * time.Millisecond
		}
		origin := base.Add(time.Duration(i) * time.Millisecond)
		outs = append(outs, &outcome{Origin: origin, Done: origin.Add(lat)})
		ok = append(ok, 999-i) // order must not matter
	}
	p50, tailV, _ := latencyStats(outs, ok)
	if p50 != 10 || tailV != 10 {
		t.Errorf("p50 %v, tail %v; want 10 and 10", p50, tailV)
	}
	// Under two windows' worth, the run is one window.
	p50, tailV, _ = latencyStats(outs[:300], []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	if p50 != 10 || tailV != 10 {
		t.Errorf("small run: p50 %v, tail %v", p50, tailV)
	}
}
