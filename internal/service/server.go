package service

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
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

// job is the server-side state of one submitted run.
type job struct {
	id   string
	spec JobSpec
	hash string

	mu    sync.Mutex
	state string
	// inst and flib are the admission build, carried from handleSubmit to
	// the worker so the spec's tDSE runs once. runJob takes them; every
	// terminal transition drops them. Nil for jobs recovered from a store.
	inst      *core.Instance
	flib      *tdse.Library
	cached    bool
	errMsg    string
	front     *FrontWire
	progress  *ProgressWire
	cancel    context.CancelFunc // set while running
	subs      map[chan ProgressWire]struct{}
	done      chan struct{} // closed on terminal state
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// wire snapshots the job's status; includeFront attaches the result of a
// finished job.
func (j *job) wire(includeFront bool) *JobWire {
	j.mu.Lock()
	defer j.mu.Unlock()
	w := &JobWire{
		ID:          j.id,
		State:       j.state,
		Method:      j.spec.Method,
		SpecHash:    j.hash,
		Cached:      j.cached,
		Error:       j.errMsg,
		SubmittedAt: j.submitted,
	}
	if j.progress != nil {
		p := *j.progress
		w.Progress = &p
	}
	if !j.started.IsZero() {
		t := j.started
		w.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		w.FinishedAt = &t
	}
	if includeFront && j.state == StateDone {
		w.Front = j.front
	}
	return w
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

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for listing
	// activeByHash indexes queued and running jobs by spec hash for the
	// in-flight dedup. An entry may briefly outlive its job's terminal
	// transition, so readers check the state.
	activeByHash map[string]*job
	cache        *lruCache
	draining     bool
	nextID       int64
}

// New starts a job service with cfg's queue, worker-pool and cache sizes.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, abort := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		baseCtx:      ctx,
		abort:        abort,
		metrics:      newMetrics(),
		jobs:         make(map[string]*job),
		activeByHash: make(map[string]*job),
		cache:        newLRUCache(cfg.CacheCap),
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
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
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
			httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
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
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, id := range s.order {
			j := s.jobs[id]
			j.mu.Lock()
			if j.state == StateQueued {
				s.finishLocked(j, StateCancelled, "service shutting down")
				delete(s.activeByHash, j.hash)
			}
			j.mu.Unlock()
		}
		close(s.queue)
	}
	s.mu.Unlock()

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
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.state = StateRunning
	j.cancel = cancel
	j.started = time.Now()
	inst, flib := j.inst, j.flib
	j.inst, j.flib = nil, nil
	j.mu.Unlock()
	defer cancel()

	total := j.spec.TotalGenerations()
	hooks := RunHooks{
		Progress: func(e core.ProgressEvent) {
			s.publishProgress(j, e, total)
		},
		CheckpointEvery: s.cfg.CheckpointEvery,
	}
	if s.cfg.Store != nil {
		// The checkpointer also carries any snapshot a previous daemon
		// incarnation saved for this spec, so a re-enqueued job resumes
		// mid-evolution instead of restarting.
		hooks.Checkpoint = newJobCheckpointer(s.cfg.Store, j.hash)
	}
	var err error
	if inst == nil {
		// Recovered from the store: never admitted in this process.
		inst, flib, err = Build(&j.spec)
	}
	var front *core.Front
	if err == nil {
		front, err = ExecuteOnHooks(ctx, inst, flib, &j.spec, hooks)
	}

	j.mu.Lock()
	j.cancel = nil
	aborted := false
	switch {
	case ctx.Err() != nil:
		s.finishLocked(j, StateCancelled, "cancelled")
		// A forced-shutdown abort is not a client decision: the job keeps
		// its pending store record (plus the final cancellation checkpoint
		// the GA just wrote), so the next incarnation re-enqueues and
		// resumes it. A client DELETE is terminal and is journaled.
		aborted = s.baseCtx.Err() != nil
	case err != nil:
		s.finishLocked(j, StateFailed, err.Error())
	default:
		j.front = FrontToWire(front)
		s.finishLocked(j, StateDone, "")
	}
	j.mu.Unlock()

	s.mu.Lock()
	if j.front != nil {
		s.cache.Add(j.hash, j.front)
	}
	s.deactivateLocked(j)
	s.mu.Unlock()
	if !aborted {
		s.persistFinish(j)
	}
	s.metrics.observeLatency(j.spec.Method, time.Since(j.started))
}

// finishLocked moves a job (whose mu the caller holds) to a terminal state.
func (s *Server) finishLocked(j *job, state, errMsg string) {
	j.state = state
	if state != StateDone {
		j.errMsg = errMsg
	}
	j.inst, j.flib = nil, nil
	j.finished = time.Now()
	close(j.done)
}

// deactivateLocked drops a terminal job from the in-flight index unless a
// newer job for the same spec replaced it. The caller holds s.mu.
func (s *Server) deactivateLocked(j *job) {
	if s.activeByHash[j.hash] == j {
		delete(s.activeByHash, j.hash)
	}
}

// activeLocked returns the queued or running job for a spec hash, if any.
// The caller holds s.mu.
func (s *Server) activeLocked(hash string) *job {
	j := s.activeByHash[hash]
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued && j.state != StateRunning {
		return nil
	}
	return j
}

// publishProgress records the latest generation report and fans it out to
// SSE subscribers. Slow subscribers drop events rather than stall the GA.
func (s *Server) publishProgress(j *job, e core.ProgressEvent, total int) {
	p := ProgressWire{
		Stage:            e.Stage,
		Generation:       e.Generation,
		Generations:      e.Generations,
		TotalGenerations: total,
		Evaluations:      e.Evaluations,
		ArchiveSize:      e.ArchiveSize,
	}
	j.mu.Lock()
	j.progress = &p
	for sub := range j.subs {
		select {
		case sub <- p:
		default:
		}
	}
	j.mu.Unlock()
}

// ---- HTTP handlers ----

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.cfg.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("job spec exceeds %d-byte limit", tooLarge.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding job spec: %v", err))
		return
	}
	if err := spec.Normalize(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	hash := spec.Hash()

	// Two passes: the first answers attaches and cache hits, which build
	// nothing (their spec already built once, and Build is deterministic);
	// otherwise the spec builds outside the lock and the second pass
	// re-checks, since an identical spec may have been admitted meanwhile.
	var inst *core.Instance
	var flib *tdse.Library
	for {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			httpError(w, http.StatusServiceUnavailable, "service shutting down")
			return
		}
		if inst == nil {
			s.metrics.incSubmitted()
		}
		// In-flight dedupe: a spec identical to one already queued or
		// running is the same deterministic computation, so the second
		// client attaches to the first job instead of doubling the work.
		if dup := s.activeLocked(hash); dup != nil {
			s.metrics.incDeduped()
			s.mu.Unlock()
			writeJSON(w, http.StatusAccepted, dup.wire(false))
			return
		}
		if front, ok := s.cache.Get(hash); ok {
			s.serveCachedLocked(w, spec, hash, front)
			return
		}
		if inst != nil {
			break // s.mu stays held for the enqueue below
		}
		s.mu.Unlock()
		// Materialize the instance up front so malformed specs (e.g. bad
		// inline graphs) fail fast with 400 instead of failing the job
		// later; the worker then runs on this build.
		var err error
		if inst, flib, err = Build(&spec); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	s.metrics.incCacheMiss()
	j := s.newJobLocked(spec, hash)
	j.state = StateQueued
	j.inst, j.flib = inst, flib
	// Holding j.mu across enqueue + journaling keeps a fast worker from
	// finishing the job before its accept record is durable (runJob's first
	// act is taking j.mu).
	j.mu.Lock()
	select {
	case s.queue <- j:
	default:
		j.mu.Unlock()
		s.nextID--
		s.metrics.incRejected()
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("queue full (%d jobs waiting)", s.cfg.QueueCap))
		return
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.activeByHash[hash] = j
	s.mu.Unlock()
	if st := s.cfg.Store; st != nil {
		// Journal the accepted spec before acknowledging: once the client
		// sees 202, the job survives a crash. A store failure fails the
		// job up front rather than acknowledging work that could vanish.
		spec, err := json.Marshal(&j.spec)
		if err == nil {
			err = st.AcceptJob(j.id, hash, spec, j.submitted)
		}
		if err != nil {
			s.finishLocked(j, StateFailed, "journaling job: "+err.Error())
			j.mu.Unlock()
			s.mu.Lock()
			s.deactivateLocked(j)
			s.mu.Unlock()
			httpError(w, http.StatusInternalServerError, "journaling job: "+err.Error())
			return
		}
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusAccepted, j.wire(false))
}

// newJobLocked allocates the next job record; the caller holds s.mu.
func (s *Server) newJobLocked(spec JobSpec, hash string) *job {
	s.nextID++
	return &job{
		id:        fmt.Sprintf("j%06d", s.nextID),
		spec:      spec,
		hash:      hash,
		subs:      make(map[chan ProgressWire]struct{}),
		done:      make(chan struct{}),
		submitted: time.Now(),
	}
}

// serveCachedLocked answers a submission from the result cache: same
// canonical spec (incl. seed) → same deterministic front, served without
// running. The caller holds s.mu; serveCachedLocked releases it.
func (s *Server) serveCachedLocked(w http.ResponseWriter, spec JobSpec, hash string, front *FrontWire) {
	s.metrics.incCacheHit()
	j := s.newJobLocked(spec, hash)
	j.state = StateDone
	j.cached = true
	j.front = front
	j.finished = j.submitted
	close(j.done)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	if st := s.cfg.Store; st != nil {
		// Best-effort: the front itself is already durable under this
		// hash; journaling the job record just keeps GET /v1/jobs/{id}
		// answering across a restart.
		if spec, err := json.Marshal(&j.spec); err == nil {
			_ = st.AcceptJob(j.id, hash, spec, j.submitted)
			_ = st.FinishJob(j.id, StateDone, hash, "", true, nil, j.finished)
		}
	}
	writeJSON(w, http.StatusOK, j.wire(true))
}

func (s *Server) lookup(r *http.Request) (*job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	return j, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.wire(true))
}

// handleWait is the long-poll companion of handleGet: it blocks until the
// job reaches a terminal state or the "timeout" query parameter (default
// 30s, capped at 5m) elapses, then responds with the job's wire status.
// Remote sweep coordinators use it to await cells without busy polling.
func (s *Server) handleWait(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	d := 30 * time.Second
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		parsed, err := time.ParseDuration(raw)
		if err != nil || parsed <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad timeout %q", raw))
			return
		}
		d = min(parsed, 5*time.Minute)
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-j.done:
	case <-timer.C:
	case <-r.Context().Done():
		return
	}
	writeJSON(w, http.StatusOK, j.wire(true))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, len(s.order))
	for i, id := range s.order {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]*JobWire, len(jobs))
	for i, j := range jobs {
		out[i] = j.wire(false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	j.mu.Lock()
	wasQueued := false
	switch j.state {
	case StateQueued:
		// The job stays in the queue channel; the worker skips it.
		s.finishLocked(j, StateCancelled, "cancelled")
		s.deactivateLocked(j)
		wasQueued = true
	case StateRunning:
		// The GA polls the context between generations, so the run stops
		// within one generation; the worker then marks the job cancelled.
		j.cancel()
	}
	j.mu.Unlock()
	s.mu.Unlock()
	if wasQueued {
		// A client cancellation is a terminal decision: journal it (and
		// drop any checkpoint) so a restart does not resurrect the job.
		// Running jobs are journaled by the worker once the GA unwinds.
		s.persistFinish(j)
	}
	writeJSON(w, http.StatusAccepted, j.wire(false))
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// Coalescing buffer: the GA never blocks on a slow consumer; a full
	// buffer drops intermediate generations, the terminal event always
	// carries the final state.
	sub := make(chan ProgressWire, 16)
	j.mu.Lock()
	j.subs[sub] = struct{}{}
	j.mu.Unlock()
	defer func() {
		j.mu.Lock()
		delete(j.subs, sub)
		j.mu.Unlock()
	}()

	// Replay the latest generation snapshot so a subscriber that joins
	// late — or after a fast job already finished — still observes
	// progress. Duplicates are harmless: progress events are snapshots.
	j.mu.Lock()
	last := j.progress
	j.mu.Unlock()

	writeSSE(w, "status", j.wire(false))
	if last != nil {
		writeSSE(w, "progress", *last)
	}
	flusher.Flush()
	for {
		select {
		case p := <-sub:
			writeSSE(w, "progress", p)
			flusher.Flush()
		case <-j.done:
			// Drain progress that raced with completion, then emit the
			// terminal event named after the final state.
			for {
				select {
				case p := <-sub:
					writeSSE(w, "progress", p)
				default:
					final := j.wire(true)
					writeSSE(w, final.State, final)
					flusher.Flush()
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
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
		BatchWarmed:      at.BatchWarmed,
		ProxyEvals:       at.ProxyEvals,
		ScreenedOut:      at.ScreenedOut,
		PairedSolves:     at.PairedSolves,
		SoloSolves:       at.SoloSolves,
	}
	st := core.SelectionTotals()
	m.Selection = SelectionWire{SortNanos: st.SortNanos, ArchiveNanos: st.ArchiveNanos}
	fm := faultmodel.Totals()
	m.FaultModel = FaultModelWire{
		Evals:              fm.Evals,
		PermChains:         fm.PermChains,
		CheckpointPolicies: fm.CheckpointPolicies,
	}
	m.Convergence = ConvergenceWire{
		GenerationsRun:    st.GenerationsRun,
		GenerationsBudget: st.GenerationsBudget,
		GenerationsSaved:  st.GenerationsSaved,
		PlateauStops:      st.PlateauStops,
		LastHypervolume:   st.LastHypervolume,
	}
	if st := s.cfg.Store; st != nil {
		sw := StoreWire(st.Stats())
		m.Store = &sw
	}
	s.mu.Lock()
	m.Cache.Size = s.cache.Len()
	m.Cache.Capacity = s.cfg.CacheCap
	jobs := make([]*job, len(s.order))
	for i, id := range s.order {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			m.Jobs.Queued++
		case StateRunning:
			m.Jobs.Running++
		case StateDone:
			m.Jobs.Done++
		case StateFailed:
			m.Jobs.Failed++
		case StateCancelled:
			m.Jobs.Cancelled++
		}
		j.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, m)
}

// ---- helpers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
