package main

import (
	"encoding/json"
	"math"
	"sort"
	"time"
)

// opt is one counter read from a /metrics payload. A field the payload
// lacks decodes to ok == false, so a counter a later version deletes is
// reported as absent instead of failing the run.
type opt struct {
	v  float64
	ok bool
}

func (o *opt) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	if err := json.Unmarshal(b, &o.v); err != nil {
		return err
	}
	o.ok = true
	return nil
}

func (o opt) sub(b opt) opt       { return opt{o.v - b.v, o.ok && b.ok} }
func (o opt) add(b opt) opt       { return opt{o.v + b.v, o.ok && b.ok} }
func (o opt) scale(k float64) opt { return opt{o.v * k, o.ok} }

// ratio is o/(o+b), absent when either is absent, 0 when both are 0.
func (o opt) ratio(b opt) opt {
	if !o.ok || !b.ok {
		return opt{}
	}
	if o.v+b.v == 0 {
		return opt{0, true}
	}
	return opt{o.v / (o.v + b.v), true}
}

func present(v float64) opt { return opt{v, true} }

// storeCounters are the durable store's gauges on either server.
type storeCounters struct {
	WALBytes opt `json:"wal_bytes"`
	Appends  opt `json:"appends"`
	Syncs    opt `json:"syncs"`
}

// selectionCounters are the engine selection-path timings on either server.
type selectionCounters struct {
	SortNS    opt `json:"sort_ns"`
	ArchiveNS opt `json:"archive_ns"`
}

// daemonMetrics is the part of clrearlyd's GET /metrics the benchmark reads.
type daemonMetrics struct {
	Fitness struct {
		Hits   opt `json:"hits"`
		Misses opt `json:"misses"`
	} `json:"fitness_cache"`
	Accel struct {
		DeltaParentReuse opt `json:"delta_parent_reuse"`
		DeltaPrefixRuns  opt `json:"delta_prefix_runs"`
		DeltaFullRuns    opt `json:"delta_full_runs"`
		PairedSolves     opt `json:"paired_solves"`
		SoloSolves       opt `json:"solo_solves"`
	} `json:"eval_accel"`
	Selection  selectionCounters `json:"selection"`
	FaultModel struct {
		Evals opt `json:"evals"`
	} `json:"fault_model"`
}

// gatewayMetrics is the part of the gateway's GET /metrics the benchmark
// reads.
type gatewayMetrics struct {
	Dedup struct {
		InflightAttach opt `json:"inflight_attach"`
		CacheHits      opt `json:"cache_hits"`
		StoreHits      opt `json:"store_hits"`
		Misses         opt `json:"misses"`
	} `json:"dedup"`
	Rejects struct {
		Auth         opt `json:"auth"`
		RateLimit    opt `json:"rate_limit"`
		Quota        opt `json:"quota"`
		Backpressure opt `json:"backpressure"`
	} `json:"rejects"`
	Leases struct {
		Granted opt `json:"granted"`
		Expired opt `json:"expired"`
	} `json:"leases"`
	Selection selectionCounters `json:"selection"`
	Store     storeCounters     `json:"store"`
}

// ---- statistics ----

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile (0 < q ≤ 1) of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), q)]
}

func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// tail picks the highest percentile with at least ten samples beyond it
// (nearest rank) and returns it, its value and the number beyond it. With
// fewer than eleven samples it falls back to the maximum.
func tail(sorted []float64) (pct, value float64, beyond int) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		i := rankIndex(n, p/100)
		if b := n - 1 - i; b >= 10 {
			return p, sorted[i], b
		}
	}
	if n == 0 {
		return 100, 0, 0
	}
	return 100, sorted[n-1], 0
}
