package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/platform"
	"repro/internal/relmodel"
)

// metricsShards is the shard count of the instance-level metric cache. 64
// shards keep lock contention negligible at any realistic worker count
// while the per-shard maps stay small enough to scan for stats.
const metricsShards = 64

// metricsEntry is a single-flight cache slot: the first goroutine to claim
// a key computes the metrics inside once; concurrent requesters for the
// same key block on that one computation instead of duplicating the Markov
// analysis.
type metricsEntry struct {
	once sync.Once
	m    relmodel.Metrics
}

type metricsShard struct {
	mu sync.Mutex
	m  map[metricsKey]*metricsEntry
}

// metricsCache memoizes task-level Markov evaluations per instance. It is
// shared by every strategy run (fcCLR, the layer-restricted baselines,
// proposed) exploring the same instance, so identical metricsKey entries
// are computed once per instance rather than once per run.
type metricsCache struct {
	shards [metricsShards]metricsShard
	hits   atomic.Uint64
	misses atomic.Uint64
}

// hash mixes the key fields FNV-1a style to pick a shard.
func (k metricsKey) hash() uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range [...]int{k.taskType, k.impl, k.asg.Mode, k.asg.HW, k.asg.SSW, k.asg.ASW} {
		h ^= uint64(v)
		h *= prime64
	}
	return h
}

// lookup returns the metrics for key, calling compute at most once per key
// for the lifetime of the cache.
func (c *metricsCache) lookup(key metricsKey, compute func() relmodel.Metrics) relmodel.Metrics {
	s := &c.shards[key.hash()%metricsShards]
	s.mu.Lock()
	e, ok := s.m[key]
	if !ok {
		if s.m == nil {
			s.m = make(map[metricsKey]*metricsEntry)
		}
		e = &metricsEntry{}
		s.m[key] = e
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() { e.m = compute() })
	return e.m
}

// CacheStats reports the state of an instance's shared Markov-metric cache.
type CacheStats struct {
	// Hits counts lookups that found an existing entry (including ones that
	// briefly waited on an in-flight computation).
	Hits uint64
	// Misses counts lookups that created the entry and ran the computation.
	Misses uint64
	// Entries is the number of distinct (task type, impl, assignment) keys.
	Entries int
}

// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (c *metricsCache) stats() CacheStats {
	st := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.m)
		s.mu.Unlock()
	}
	return st
}

// metricsInitMu guards lazy creation of per-instance caches. Instance is a
// plain exported struct built by composite literals all over the tree, so
// the cache field cannot carry its own sync primitive without making
// Instance uncopyable (scenario scaling copies it by value).
var metricsInitMu sync.Mutex

// sharedMetrics returns the instance's metric cache, creating it on first
// use. Every problem built on this instance shares the returned cache.
func (in *Instance) sharedMetrics() *metricsCache {
	metricsInitMu.Lock()
	defer metricsInitMu.Unlock()
	if in.metrics == nil {
		in.metrics = &metricsCache{}
	}
	return in.metrics
}

// MetricsCacheStats reports hit/miss counters and size of the instance's
// shared Markov-metric cache (creating the cache if needed).
func (in *Instance) MetricsCacheStats() CacheStats {
	return in.sharedMetrics().stats()
}

// WithPlatform returns a copy of the instance bound to a different platform
// and a fresh metric cache. Task metrics depend on the PE type's
// fault rates and DVFS modes, so a derived environment (e.g. a scenario
// with scaled SEU rates) must not share cached values with its parent.
func (in *Instance) WithPlatform(p *platform.Platform) *Instance {
	out := *in
	out.Platform = p
	out.metrics = nil
	return &out
}
