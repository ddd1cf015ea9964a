package service

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/store"
	"repro/internal/tdse"
)

// Config sizes the job service.
type Config struct {
	// QueueCap bounds the number of jobs waiting to run (default 64);
	// submissions beyond it are rejected with 503.
	QueueCap int
	// Workers is the number of concurrent job runners (default 2). Each
	// running job's GA draws its fitness-evaluation workers from the
	// process-wide CPU-token pool (sweep.AcquireWorkers) at generation
	// granularity, so concurrent jobs divide the machine instead of
	// oversubscribing it; Workers therefore controls how many jobs make
	// progress at once, not how many CPUs are used.
	Workers int
	// CacheCap bounds the LRU result cache (default 128 fronts).
	CacheCap int
	// Store, when non-nil, makes the service durable: accepted specs and
	// terminal results are journaled, GA runs checkpoint every
	// CheckpointEvery generations, and New replays the store — cached
	// fronts are rehydrated, finished jobs reappear, and jobs that never
	// reached a terminal state are re-enqueued (resuming mid-evolution
	// from their checkpoints).
	Store *store.Store
	// CheckpointEvery is the generation period of durable GA snapshots
	// (default core.DefaultCheckpointEvery; meaningful only with Store).
	CheckpointEvery int
	// AuthToken, when non-empty, locks the job API: every request except
	// GET /healthz must carry "Authorization: Bearer <AuthToken>". Workers
	// fronted by a gateway set it (clrearlyd -worker-token) so only the
	// fleet — which shares the token — can reach the daemon directly.
	AuthToken string
	// MaxBodyBytes caps the request body of POST /v1/jobs (default 1 MiB;
	// negative disables the cap). Oversized submissions get 413 before the
	// decoder buffers an unbounded spec.
	MaxBodyBytes int64
	// IslandHub, when non-nil, is mounted at POST /v1/island/exchange
	// (behind AuthToken like every other endpoint): the epoch barrier that
	// lets islands of one coordinator-driven run span daemons. Typically a
	// *dist.MigrationHub; the daemon does not construct one itself so the
	// import graph stays service → dist-free.
	IslandHub http.Handler
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 128
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// job is the daemon's record of one submitted run: the shared lifecycle
// record plus what only a local run needs. Fields below are guarded by the
// embedded Job's lock.
type job struct {
	*Job
	// inst and flib are the admission build, carried from handleSubmit to
	// the worker so the spec's tDSE runs once. The worker drops them when
	// it dequeues the job, run or not. Nil for jobs recovered from a store.
	inst   *core.Instance
	flib   *tdse.Library
	cancel context.CancelFunc // set while running
}

// Server is the DSE job service: a bounded FIFO queue drained by a fixed
// worker pool, an LRU result cache keyed by the canonical spec hash, and
// the HTTP API on top. Create with New, serve via http.Server, stop with
// Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	queue   chan *job
	baseCtx context.Context
	abort   context.CancelFunc // cancels all running jobs (forced shutdown)
	metrics *Metrics
	wg      sync.WaitGroup
	jobs    *JobTable[*job]
	// draining is guarded by jobs' lock: once set, nothing more is queued.
	draining bool
}

// New starts a job service with cfg's queue, worker-pool and cache sizes.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, abort := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		baseCtx: ctx,
		abort:   abort,
		metrics: newMetrics(),
		jobs:    NewJobTable[*job]("j", cfg.CacheCap),
	}
	// Recovery pass: replay the store before serving, and size the queue so
	// the whole recovered backlog fits alongside a full queue of new work.
	var pending []*job
	if cfg.Store != nil {
		pending = s.recover(cfg.Store)
	}
	s.queue = make(chan *job, cfg.QueueCap+len(pending))
	for _, j := range pending {
		s.queue <- j
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/wait", s.handleWait)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", Healthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.IslandHub != nil {
		s.mux.Handle("POST /v1/island/exchange", cfg.IslandHub)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// ServeHTTP implements http.Handler. With an AuthToken configured, every
// endpoint except the liveness probe requires the bearer token.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.AuthToken != "" && r.URL.Path != "/healthz" {
		if !CheckBearer(r, s.cfg.AuthToken) {
			HTTPError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

// CheckBearer reports whether r carries "Authorization: Bearer <token>".
// The comparison is constant-time so the API key cannot be guessed
// byte-by-byte from response timing.
func CheckBearer(r *http.Request, token string) bool {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) <= len(prefix) || h[:len(prefix)] != prefix {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(h[len(prefix):]), []byte(token)) == 1
}

// Shutdown stops the service gracefully: new submissions are rejected,
// still-queued jobs are cancelled, and running jobs are drained until ctx
// expires, at which point their contexts are cancelled (each GA then stops
// within one generation) and Shutdown waits for them to unwind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.jobs.Lock()
	first := !s.draining
	s.draining = true
	s.jobs.Unlock()
	if first {
		for _, j := range s.jobs.List() {
			j.Lock()
			cancelled := j.State == StateQueued && j.FinishLocked(nil, StateCancelled, "service shutting down", nil)
			j.Unlock()
			if cancelled {
				s.jobs.Retire(j)
			}
		}
		// Submissions check draining before they enqueue, so nothing
		// sends on the queue any more.
		close(s.queue)
	}

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.abort()
		<-drained
		return ctx.Err()
	}
}

// ---- job execution ----

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	j.Lock()
	inst, flib := j.inst, j.flib
	j.inst, j.flib = nil, nil
	if j.State != StateQueued { // cancelled while queued
		j.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.State = StateRunning
	j.cancel = cancel
	j.Started = time.Now()
	j.Unlock()
	defer cancel()

	total := j.Spec.TotalGenerations()
	hooks := RunHooks{
		Progress: func(e core.ProgressEvent) {
			j.Publish(ProgressToWire(e, total))
		},
		CheckpointEvery: s.cfg.CheckpointEvery,
	}
	if s.cfg.Store != nil {
		// The checkpointer also carries any snapshot a previous daemon
		// incarnation saved for this spec, so a re-enqueued job resumes
		// mid-evolution instead of restarting.
		hooks.Checkpoint = newJobCheckpointer(s.cfg.Store, j.Hash)
	}
	var err error
	if inst == nil {
		// Recovered from the store: never admitted in this process.
		inst, flib, err = Build(&j.Spec)
	}
	var front *core.Front
	if err == nil {
		front, err = ExecuteOnHooks(ctx, inst, flib, &j.Spec, hooks)
	}

	// A forced-shutdown abort is not a client decision: the job keeps its
	// pending store record (plus the final cancellation checkpoint the GA
	// just wrote), so the next incarnation re-enqueues and resumes it. Every
	// other outcome, a client DELETE included, is journaled.
	st := s.cfg.Store
	if ctx.Err() != nil && s.baseCtx.Err() != nil {
		st = nil
	}
	j.Lock()
	j.cancel = nil
	switch {
	case ctx.Err() != nil:
		j.FinishLocked(st, StateCancelled, "cancelled", nil)
	case err != nil:
		j.FinishLocked(st, StateFailed, err.Error(), nil)
	default:
		j.FinishLocked(st, StateDone, "", FrontToWire(front))
	}
	j.Unlock()
	s.jobs.Retire(j)
	s.metrics.observeLatency(j.Spec.Method, time.Since(j.Started))
}

// ---- HTTP handlers ----

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, hash, ok := DecodeSpec(w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}

	// Two passes: the first answers attaches and cache hits, which build
	// nothing (their spec already built once, and Build is deterministic);
	// otherwise the spec builds outside the lock and the second pass
	// re-checks, since an identical spec may have been admitted meanwhile.
	var inst *core.Instance
	var flib *tdse.Library
	for {
		s.jobs.Lock()
		if s.draining {
			s.jobs.Unlock()
			HTTPError(w, http.StatusServiceUnavailable, "service shutting down")
			return
		}
		if inst == nil {
			s.metrics.incSubmitted()
		}
		// In-flight dedupe: a spec identical to one already queued or
		// running is the same deterministic computation, so the second
		// client attaches to the first job instead of doubling the work.
		if dup, ok := s.jobs.ActiveLocked(hash); ok {
			s.metrics.incDeduped()
			s.jobs.Unlock()
			WriteJSON(w, http.StatusAccepted, dup.Wire(false))
			return
		}
		if front, ok := s.jobs.CachedLocked(hash); ok {
			s.metrics.incCacheHit()
			j := &job{Job: s.jobs.NewJobLocked(spec, hash)}
			s.jobs.AnswerCachedLocked(w, s.cfg.Store, j, front, j.stored())
			return
		}
		if inst != nil {
			break // the table lock stays held for the enqueue below
		}
		s.jobs.Unlock()
		// Materialize the instance up front so malformed specs (e.g. bad
		// inline graphs) fail fast with 400 instead of failing the job
		// later; the worker then runs on this build.
		var err error
		if inst, flib, err = Build(&spec); err != nil {
			HTTPError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	s.metrics.incCacheMiss()
	// Only submissions send on the queue, under the table lock, so a free
	// slot seen here is still free at the send.
	if len(s.queue) == cap(s.queue) {
		s.metrics.incRejected()
		s.jobs.Unlock()
		HTTPError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("queue full (%d jobs waiting)", s.cfg.QueueCap))
		return
	}
	j := &job{Job: s.jobs.NewJobLocked(spec, hash), inst: inst, flib: flib}
	j.State = StateQueued
	// Holding j's lock across enqueue + journaling keeps a fast worker from
	// finishing the job before its accept record is durable (runJob's first
	// act is taking it).
	j.Lock()
	s.queue <- j
	s.jobs.AddActiveLocked(j)
	s.jobs.Unlock()
	if st := s.cfg.Store; st != nil {
		// Journal the accepted spec before acknowledging: once the client
		// sees 202, the job survives a crash. A store failure fails the
		// job up front rather than acknowledging work that could vanish.
		if err := st.AcceptJob(j.ID, hash, j.stored(), j.Submitted); err != nil {
			j.FinishLocked(nil, StateFailed, "journaling job: "+err.Error(), nil)
			j.Unlock()
			s.jobs.Retire(j)
			HTTPError(w, http.StatusInternalServerError, "journaling job: "+err.Error())
			return
		}
	}
	j.Unlock()
	WriteJSON(w, http.StatusAccepted, j.Wire(false))
}

// stored is the journaled form of the accepted spec.
func (j *job) stored() []byte {
	payload, _ := json.Marshal(&j.Spec)
	return payload
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		HTTPError(w, http.StatusNotFound, "no such job")
	}
	return j
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		WriteJSON(w, http.StatusOK, j.Wire(true))
	}
}

func (s *Server) handleWait(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		ServeWait(w, r, j.Job)
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		ServeEvents(w, r, j.Job)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.List()
	out := make([]*JobWire, len(jobs))
	for i, j := range jobs {
		out[i] = j.Wire(false)
	}
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.Lock()
	cancelled := false
	switch j.State {
	case StateQueued:
		// The job stays in the queue channel; the worker skips it. A
		// client cancellation is a terminal decision: it is journaled (and
		// any checkpoint dropped) so a restart does not resurrect the job.
		cancelled = j.FinishLocked(s.cfg.Store, StateCancelled, "cancelled", nil)
	case StateRunning:
		// The GA polls the context between generations, so the run stops
		// within one generation; the worker then finishes the job cancelled.
		j.cancel()
	}
	j.Unlock()
	if cancelled {
		s.jobs.Retire(j)
	}
	WriteJSON(w, http.StatusAccepted, j.Wire(false))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics.snapshot()
	m.Queue = QueueWire{Depth: len(s.queue), Capacity: s.cfg.QueueCap}
	at := core.AccelTotals()
	m.Accel = EvalAccelWire{
		DeltaParentReuse: at.DeltaParentReuse,
		DeltaPrefixRuns:  at.DeltaPrefixRuns,
		DeltaFullRuns:    at.DeltaFullRuns,
		MetricsReused:    at.MetricsReused,
		PairedSolves:     at.PairedSolves,
		SoloSolves:       at.SoloSolves,
	}
	m.Selection, m.Convergence = SelectionCounters()
	fm := faultmodel.Totals()
	m.FaultModel = FaultModelWire{
		Evals:              fm.Evals,
		PermChains:         fm.PermChains,
		CheckpointPolicies: fm.CheckpointPolicies,
	}
	if st := s.cfg.Store; st != nil {
		sw := StoreWire(st.Stats())
		m.Store = &sw
	}
	m.Cache.Size = s.jobs.CacheLen()
	m.Cache.Capacity = s.cfg.CacheCap
	count := map[string]*int64{StateQueued: &m.Jobs.Queued, StateRunning: &m.Jobs.Running,
		StateDone: &m.Jobs.Done, StateFailed: &m.Jobs.Failed, StateCancelled: &m.Jobs.Cancelled}
	for _, j := range s.jobs.List() {
		j.Lock()
		if c := count[j.State]; c != nil {
			*c++
		}
		j.Unlock()
	}
	WriteJSON(w, http.StatusOK, m)
}
