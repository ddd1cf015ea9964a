// Package gateway is the fleet control plane in front of N clrearlyd
// workers: one HTTP service that owns admission, routing and result
// storage, so a fleet of stateless-from-the-client's-view workers behaves
// like a single large daemon.
//
// Three mechanisms carry the design:
//
//   - Content-addressed result routing. Jobs are keyed by the existing
//     sha256(normalized spec) hash. A submission is resolved, in order,
//     by attaching to an identical in-flight job, by the job table's
//     LRU front cache, by the replicated terminal-result store (a
//     WAL-backed internal/store, so cached fronts survive gateway
//     restarts), and only then by dispatch — the whole fleet shares one
//     logical result cache.
//
//   - Pull-based work distribution. Workers long-poll POST /v1/lease for
//     work instead of having jobs pushed at them. A lease carries a TTL
//     and is renewed by progress reports; a worker that dies mid-lease
//     simply stops renewing, and the expiry loop re-enqueues the job at
//     the head of its class until its delivery budget runs out. Runs are
//     deterministic per spec, so re-execution is always safe.
//
//   - Tenancy and admission control. Every tenant-facing request carries
//     an API key mapping to a tenant with a token-bucket rate limit, an
//     active-job quota and a priority class; the dequeue across classes
//     is weighted-fair. Overload — rate, quota or global queue depth —
//     answers 429 with Retry-After, never an unbounded queue.
//
// The job lifecycle is clrearlyd's own (service.Job and JobTable, the
// shared /wait and /events handlers): a gwJob adds tenancy and lease state
// on top, so the tenant-facing API answers as a single daemon does.
package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/service"
	"repro/internal/store"
)

// Config sizes the gateway.
type Config struct {
	// Tenants is the admission-control table; requests whose API key
	// matches no tenant are rejected with 401.
	Tenants []TenantConfig
	// WorkerToken, when non-empty, is the bearer token workers must
	// present on the lease API. Tenant keys never work there, so a tenant
	// cannot lease out (and so observe) other tenants' specs.
	WorkerToken string
	// QueueCap bounds jobs queued fleet-wide (default 256); beyond it
	// submissions get 429 + Retry-After backpressure.
	QueueCap int
	// CacheCap bounds the gateway-local LRU front cache (default 256).
	CacheCap int
	// LeaseTTL is how long a lease survives without a renewal (default
	// 15s). Workers renew implicitly with every progress report.
	LeaseTTL time.Duration
	// MaxDeliveries bounds how many times one job is leased out before it
	// is failed (default 5): a spec that keeps killing workers must not
	// circulate forever.
	MaxDeliveries int
	// Store, when non-nil, makes the control plane durable: admitted jobs
	// are journaled before the 202 ack, terminal fronts become the
	// replicated result store, and a restarted gateway re-enqueues
	// unfinished jobs and re-serves cached fronts.
	Store *store.Store
	// MaxBodyBytes caps tenant request bodies (default 1 MiB).
	MaxBodyBytes int64
	// ProbeEvery is the period of the health probe against workers that
	// advertise an address (default 5s; negative disables). Workers that
	// advertise none are judged by lease traffic alone.
	ProbeEvery time.Duration
	// DisableIslandHub turns off the island migration barrier the gateway
	// mounts at POST /v1/island/exchange (worker-token gated, like the
	// lease API). With the hub on, islands of one leased job may run on
	// different workers and still exchange migrants deterministically.
	DisableIslandHub bool
	// Client is the HTTP client used for worker probes.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 256
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.MaxDeliveries <= 0 {
		c.MaxDeliveries = 5
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Gateway is the control-plane server. Create with New, mount as an
// http.Handler, release with Close.
type Gateway struct {
	cfg     Config
	mux     *http.ServeMux
	queue   *workQueue
	byKey   map[string]*tenant
	byName  map[string]*tenant
	anon    *tenant // owner of jobs recovered under a tenant no longer configured
	m       gwMetrics
	islands *dist.MigrationHub // nil when DisableIslandHub
	closed  chan struct{}
	loopsWG sync.WaitGroup
	jobs    *service.JobTable[*gwJob]

	mu        sync.Mutex // guards the lease and worker registries
	leases    map[string]*lease
	workers   map[string]*workerInfo
	nextLease int64
}

// lease is one outstanding claim of a job by a worker.
type lease struct {
	id      string
	job     *gwJob
	worker  string
	granted time.Time
	expires time.Time
}

// workerInfo is the gateway's view of one leasing worker.
type workerInfo struct {
	name      string
	addr      string // normalized advertised base URL; "" = none
	lastSeen  time.Time
	probedOK  bool // last /healthz probe result (addr-advertising workers)
	probed    bool
	completed int64
	failed    int64
	expired   int64
}

// New builds a gateway over the tenant table and starts its lease-expiry
// and worker-probe loops.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:     cfg,
		queue:   newWorkQueue(cfg.QueueCap),
		byKey:   make(map[string]*tenant),
		byName:  make(map[string]*tenant),
		closed:  make(chan struct{}),
		jobs:    service.NewJobTable[*gwJob]("g", cfg.CacheCap),
		leases:  make(map[string]*lease),
		workers: make(map[string]*workerInfo),
	}
	for _, tc := range cfg.Tenants {
		t := newTenant(tc)
		if _, dup := g.byKey[tc.Key]; dup {
			return nil, fmt.Errorf("gateway: duplicate API key (tenant %q)", tc.Name)
		}
		if _, dup := g.byName[tc.Name]; dup {
			return nil, fmt.Errorf("gateway: duplicate tenant name %q", tc.Name)
		}
		g.byKey[tc.Key] = t
		g.byName[tc.Name] = t
	}
	g.anon = newTenant(TenantConfig{Name: "(recovered)", Key: "", MaxActive: -1})
	if cfg.Store != nil {
		g.recover(cfg.Store)
	}

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/jobs", g.handleSubmit)
	g.mux.HandleFunc("GET /v1/jobs", g.handleList)
	g.mux.HandleFunc("GET /v1/jobs/{id}", g.handleGet)
	g.mux.HandleFunc("GET /v1/jobs/{id}/wait", g.handleWait)
	g.mux.HandleFunc("GET /v1/jobs/{id}/events", g.handleEvents)
	g.mux.HandleFunc("DELETE /v1/jobs/{id}", g.handleCancel)
	g.mux.HandleFunc("POST /v1/lease", g.handleLease)
	if !cfg.DisableIslandHub {
		g.islands = dist.NewMigrationHub()
		g.mux.HandleFunc("POST /v1/island/exchange", func(w http.ResponseWriter, r *http.Request) {
			// Worker-token gated like the lease API: exchanges carry genomes
			// derived from tenant specs, so tenants must not reach the hub.
			if !g.authWorker(w, r) {
				return
			}
			g.islands.ServeHTTP(w, r)
		})
	}
	g.mux.HandleFunc("POST /v1/lease/{id}/progress", g.handleLeaseProgress)
	g.mux.HandleFunc("POST /v1/lease/{id}/renew", g.handleLeaseRenew)
	g.mux.HandleFunc("POST /v1/lease/{id}/complete", g.handleLeaseComplete)
	g.mux.HandleFunc("GET /healthz", service.Healthz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)

	g.loopsWG.Add(1)
	go g.expiryLoop()
	if cfg.ProbeEvery > 0 {
		g.loopsWG.Add(1)
		go g.probeLoop()
	}
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Close stops the expiry and probe loops. Outstanding HTTP requests are
// the http.Server's to drain.
func (g *Gateway) Close() {
	select {
	case <-g.closed:
	default:
		close(g.closed)
	}
	if g.islands != nil {
		g.islands.Close()
	}
	g.loopsWG.Wait()
}

// recover rebuilds gateway state from the durable store: terminal fronts
// repopulate the shared result cache, finished job records keep answering
// GET /v1/jobs/{id}, and jobs that never finished re-enter the queue
// under their original IDs. Runs before the HTTP surface is up, so no
// locking is needed.
func (g *Gateway) recover(st *store.Store) {
	g.jobs.LoadResultsLocked(st)
	for _, jr := range st.Jobs() {
		// An envelope that does not decode leaves rec.Spec nil, and the
		// job comes back failed.
		var rec storedJob
		_ = json.Unmarshal(jr.Spec, &rec)
		t := g.byName[rec.Tenant]
		if t == nil {
			// The tenant table changed across the restart; the job still
			// owes its submitter a result, so it proceeds without quota
			// accounting under the recovery tenant.
			t = g.anon
		}
		j := &gwJob{Job: g.jobs.RestoreLocked(st, jr, rec.Spec), tenant: t, class: t.class}
		if j.State != service.StateQueued {
			g.jobs.AddFinishedLocked(j)
			continue
		}
		if t != g.anon {
			t.mu.Lock()
			t.active++
			t.mu.Unlock()
		}
		g.jobs.AddActiveLocked(j)
		g.queue.pushForce(j)
	}
}

// storedJob is the journaled submission payload: the spec plus its owner,
// so recovery can restore tenant attribution.
type storedJob struct {
	Tenant string          `json:"tenant"`
	Spec   json.RawMessage `json:"spec"`
}

// ---- tenant-facing handlers ----

// authTenant resolves the request's API key ("Authorization: Bearer" or
// "X-API-Key") to a tenant, answering 401 when there is none.
func (g *Gateway) authTenant(w http.ResponseWriter, r *http.Request) *tenant {
	key := r.Header.Get("X-API-Key")
	if key == "" {
		const prefix = "Bearer "
		if h := r.Header.Get("Authorization"); len(h) > len(prefix) && h[:len(prefix)] == prefix {
			key = h[len(prefix):]
		}
	}
	if t := g.byKey[key]; t != nil && key != "" {
		return t
	}
	g.m.rejectedAuth.Add(1)
	service.HTTPError(w, http.StatusUnauthorized, "missing or unknown API key")
	return nil
}

func retryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(d / time.Second)
	if d%time.Second != 0 || secs < 1 {
		secs++
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t := g.authTenant(w, r)
	if t == nil {
		return
	}
	g.m.submitted.Add(1)
	if ok, wait := t.admitRate(time.Now()); !ok {
		t.rejectedRate.Add(1)
		g.m.rejectedRate.Add(1)
		retryAfter(w, wait)
		service.HTTPError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %s over its %.3g jobs/s rate", t.cfg.Name, t.cfg.RatePerSec))
		return
	}
	spec, hash, ok := service.DecodeSpec(w, r, g.cfg.MaxBodyBytes)
	if !ok {
		return
	}

	// Content-addressed routing, cheapest source first. A spec whose hash
	// is in flight or cached built before (Build is deterministic), so
	// the edge build runs only on a miss — outside the lock, after which
	// the routing re-checks for an identical spec admitted meanwhile.
	for built := false; ; built = true {
		g.jobs.Lock()
		if g.routeKnownLocked(w, t, spec, hash) {
			return
		}
		if built {
			break // the table lock stays held for admission below
		}
		g.jobs.Unlock()
		// Reject specs that cannot build at the edge: a 400 here is
		// cheaper for the fleet than a failed job on a worker.
		if _, _, err := service.Build(&spec); err != nil {
			service.HTTPError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	g.m.misses.Add(1)

	// Admission control: per-tenant quota, then global queue depth.
	if !t.reserveActive() {
		g.jobs.Unlock()
		t.rejectedQuota.Add(1)
		g.m.rejectedQuota.Add(1)
		retryAfter(w, time.Second)
		service.HTTPError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %s at its %d active-job quota", t.cfg.Name, t.cfg.MaxActive))
		return
	}
	j := &gwJob{Job: g.jobs.NewJobLocked(spec, hash), tenant: t, class: t.class}
	j.State = service.StateQueued
	// Holding j's lock across enqueue and journaling keeps a fast agent
	// from leasing (and finishing) the job before its accept record is
	// written: tryLease's first act is taking it.
	j.Lock()
	if !g.queue.push(j) {
		j.Unlock()
		g.jobs.UnallocateLocked()
		g.jobs.Unlock()
		t.releaseActive()
		t.rejectedQueue.Add(1)
		g.m.rejectedBackpressure.Add(1)
		retryAfter(w, time.Second)
		service.HTTPError(w, http.StatusTooManyRequests,
			fmt.Sprintf("fleet queue full (%d jobs waiting)", g.cfg.QueueCap))
		return
	}
	g.jobs.AddActiveLocked(j)
	g.jobs.Unlock()
	t.admitted.Add(1)
	g.m.admitted.Add(1)
	// Journal the admission before acknowledging: once the client sees
	// 202, the job survives a gateway crash.
	if st := g.cfg.Store; st != nil {
		if err := st.AcceptJob(j.ID, j.Hash, j.stored(), j.Submitted); err != nil {
			j.Unlock()
			g.finalize(j, service.StateFailed, "journaling job: "+err.Error(), nil)
			service.HTTPError(w, http.StatusInternalServerError, "journaling job: "+err.Error())
			return
		}
	}
	j.Unlock()
	service.WriteJSON(w, http.StatusAccepted, j.Wire(false))
}

// routeKnownLocked answers a submission without dispatch when it can: an
// identical job already in flight absorbs it outright, else the shared
// result cache — gateway-local LRU, falling back to the replicated
// terminal-result store that survives restarts — serves the front. The
// caller holds the table lock; routeKnownLocked releases it when it
// answers.
func (g *Gateway) routeKnownLocked(w http.ResponseWriter, t *tenant, spec service.JobSpec, hash string) bool {
	if dup, ok := g.jobs.ActiveLocked(hash); ok {
		dup.Lock()
		dup.attached++
		if dup.tenant != t {
			// The attaching tenant is handed this job's ID, so it may read
			// the job (not cancel it: that stays with the owner).
			if dup.readers == nil {
				dup.readers = make(map[*tenant]struct{})
			}
			dup.readers[t] = struct{}{}
		}
		dup.Unlock()
		t.deduped.Add(1)
		g.m.attachHits.Add(1)
		g.jobs.Unlock()
		service.WriteJSON(w, http.StatusAccepted, dup.Wire(false))
		return true
	}
	front, ok := g.jobs.CachedLocked(hash)
	source := &g.m.cacheHits
	if !ok && g.cfg.Store != nil {
		if payload, found := g.cfg.Store.Result(hash); found {
			var fw service.FrontWire
			if err := json.Unmarshal(payload, &fw); err == nil {
				front, ok = &fw, true
				source = &g.m.storeHits
				g.jobs.AddFrontLocked(hash, front)
			}
		}
	}
	if !ok {
		return false
	}
	source.Add(1)
	t.deduped.Add(1)
	j := &gwJob{Job: g.jobs.NewJobLocked(spec, hash), tenant: t, class: t.class}
	g.jobs.AnswerCachedLocked(w, g.cfg.Store, j, front, j.stored())
	return true
}

// stored is the journaled form of the admission (storedJob).
func (j *gwJob) stored() []byte {
	spec, _ := json.Marshal(&j.Spec)
	payload, _ := json.Marshal(storedJob{Tenant: j.tenant.cfg.Name, Spec: spec})
	return payload
}

// finalize moves a job to a terminal state (idempotently): it journals the
// outcome, publishes the result and releases the admission slot.
func (g *Gateway) finalize(j *gwJob, state, errMsg string, front *service.FrontWire) {
	j.Lock()
	if !j.FinishLocked(g.cfg.Store, state, errMsg, front) {
		j.Unlock()
		return
	}
	j.worker = ""
	j.Unlock()

	t := j.tenant
	if t != g.anon {
		t.releaseActive()
	}
	switch state {
	case service.StateDone:
		t.completed.Add(1)
		g.m.completed.Add(1)
	case service.StateFailed:
		t.failed.Add(1)
		g.m.failed.Add(1)
	case service.StateCancelled:
		t.cancelled.Add(1)
		g.m.cancelled.Add(1)
	}
	g.jobs.Retire(j)
	if g.islands != nil {
		// Island runs name their barrier after the spec hash; a terminal
		// job's barrier is dead weight (and would strand stragglers).
		g.islands.Forget(j.Hash)
	}
}

func (g *Gateway) lookup(w http.ResponseWriter, r *http.Request) *gwJob {
	t := g.authTenant(w, r)
	if t == nil {
		return nil
	}
	j, _ := g.jobs.Get(r.PathValue("id"))
	// Another tenant's job reads as absent, not forbidden: job IDs must
	// not confirm what other tenants are running. Tenants that attached to
	// the job were handed its ID and may read it; jobs recovered under a
	// dropped tenant stay readable by anyone authenticated.
	if j == nil || (j.tenant != t && j.tenant != g.anon && !j.readableBy(t)) {
		service.HTTPError(w, http.StatusNotFound, "no such job")
		return nil
	}
	return j
}

func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request) {
	if j := g.lookup(w, r); j != nil {
		service.WriteJSON(w, http.StatusOK, j.Wire(true))
	}
}

func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	t := g.authTenant(w, r)
	if t == nil {
		return
	}
	out := []*service.JobWire{}
	for _, j := range g.jobs.List() {
		if j.tenant == t {
			out = append(out, j.Wire(false))
		}
	}
	service.WriteJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// handleWait long-polls a job the tenant may read; see service.ServeWait.
func (g *Gateway) handleWait(w http.ResponseWriter, r *http.Request) {
	if j := g.lookup(w, r); j != nil {
		service.ServeWait(w, r, j.Job)
	}
}

// handleEvents streams the progress the lease holder reports, under the
// daemon's SSE contract (service.ServeEvents).
func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j := g.lookup(w, r); j != nil {
		g.m.sseSubscribers.Add(1)
		defer g.m.sseSubscribers.Add(-1)
		service.ServeEvents(w, r, j.Job)
	}
}

func (g *Gateway) handleCancel(w http.ResponseWriter, r *http.Request) {
	t := g.authTenant(w, r)
	if t == nil {
		return
	}
	j, _ := g.jobs.Get(r.PathValue("id"))
	// Same hiding rule as lookup; and nobody may cancel a recovered
	// (anon-owned) job, since ownership can no longer be proven.
	if j == nil || j.tenant != t {
		service.HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	j.Lock()
	state := j.State
	if state == service.StateRunning {
		// The lease holder learns of the cancellation on its next
		// progress report or renewal; lease expiry is the backstop for a
		// worker that never checks in again.
		j.cancelReq = true
	}
	j.Unlock()
	if state == service.StateQueued {
		g.queue.remove(j)
		g.finalize(j, service.StateCancelled, "cancelled", nil)
	}
	service.WriteJSON(w, http.StatusAccepted, j.Wire(false))
}

// probeLoop health-checks workers that advertise an address.
func (g *Gateway) probeLoop() {
	defer g.loopsWG.Done()
	t := time.NewTicker(g.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-g.closed:
			return
		case <-t.C:
		}
		g.mu.Lock()
		targets := make(map[string]string)
		for name, wi := range g.workers {
			if wi.addr != "" {
				targets[name] = wi.addr
			}
		}
		g.mu.Unlock()
		timeout := max(time.Second, g.cfg.ProbeEvery)
		var wg sync.WaitGroup
		results := make(map[string]bool, len(targets))
		var resMu sync.Mutex
		for name, addr := range targets {
			wg.Add(1)
			go func(name, addr string) {
				defer wg.Done()
				ok := probe(g.cfg.Client, addr, timeout)
				resMu.Lock()
				results[name] = ok
				resMu.Unlock()
			}(name, addr)
		}
		wg.Wait()
		g.mu.Lock()
		for name, ok := range results {
			if wi := g.workers[name]; wi != nil {
				wi.probed = true
				wi.probedOK = ok
			}
		}
		g.mu.Unlock()
	}
}

// probe reports whether the HTTP service at baseURL (normalized, no
// trailing slash) answers GET /healthz with 200 within timeout.
func probe(client *http.Client, baseURL string, timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
