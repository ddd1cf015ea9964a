package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/moea"
	"repro/internal/service"
)

// Distributed island migration: the HTTP form of the moea.IslandHub epoch
// barrier, so islands of one logical run can live in different processes
// (gateway-leased workers, coordinator fleets) and still execute the exact
// in-process exchange protocol. The hub is a thin registry of per-run
// moea.IslandHub barriers behind one long-poll endpoint; every
// determinism property of the in-process hub — idempotent posts,
// ring routing, divergent-replay detection — carries over unchanged.

// maxHubRuns bounds concurrently tracked runs: beyond it new runs are
// refused (never evicted — evicting a live barrier would strand islands).
const maxHubRuns = 256

// maxExchangeBody caps one exchange request: a full migrant batch plus a
// replayed log is still far below this.
const maxExchangeBody = 8 << 20

// ExchangeRequest is the body of POST /v1/island/exchange: one island's
// emigrant post for one epoch, plus the run topology every island must
// agree on. Log, when non-empty, replays the island's checkpointed posting
// history so a hub created after a coordinator restart reaches the same
// barrier states as the one that was lost.
type ExchangeRequest struct {
	Run      string               `json:"run"`
	Island   int                  `json:"island"`
	Islands  int                  `json:"islands"`
	Count    int                  `json:"count"`
	Epoch    int                  `json:"epoch"`
	Migrants []moea.Migrant       `json:"migrants"`
	Log      []moea.EpochMigrants `json:"log,omitempty"`
}

func (req *ExchangeRequest) validate() error {
	if req.Run == "" {
		return fmt.Errorf("dist: exchange names no run")
	}
	if req.Islands < 2 {
		return fmt.Errorf("dist: run of %d islands needs ≥ 2", req.Islands)
	}
	if req.Island < 0 || req.Island >= req.Islands {
		return fmt.Errorf("dist: island %d outside run of %d", req.Island, req.Islands)
	}
	if req.Count < 1 {
		return fmt.Errorf("dist: migrant count %d must be ≥ 1", req.Count)
	}
	if req.Epoch < 0 {
		return fmt.Errorf("dist: negative epoch %d", req.Epoch)
	}
	if len(req.Migrants) > req.Count {
		return fmt.Errorf("dist: %d migrants posted for a count-%d run", len(req.Migrants), req.Count)
	}
	for i, m := range req.Migrants {
		if err := moea.ValidateMigrant(m); err != nil {
			return fmt.Errorf("dist: migrant %d: %w", i, err)
		}
	}
	for _, e := range req.Log {
		if e.Epoch < 0 {
			return fmt.Errorf("dist: replayed log has negative epoch %d", e.Epoch)
		}
		if len(e.Migrants) > req.Count {
			return fmt.Errorf("dist: replayed epoch %d has %d migrants for a count-%d run",
				e.Epoch, len(e.Migrants), req.Count)
		}
		for i, m := range e.Migrants {
			if err := moea.ValidateMigrant(m); err != nil {
				return fmt.Errorf("dist: replayed epoch %d migrant %d: %w", e.Epoch, i, err)
			}
		}
	}
	return nil
}

// ExchangeResponse carries the ring-routed immigrants back to the island.
type ExchangeResponse struct {
	Migrants []moea.Migrant `json:"migrants"`
}

// MigrationHub serves the epoch barrier over HTTP: one handler for
// POST /v1/island/exchange multiplexing any number of concurrent runs,
// each keyed by the request's run ID and backed by its own
// moea.IslandHub. Mount it behind worker auth — exchanges carry genomes,
// which are derived from (tenant-submitted) specs.
type MigrationHub struct {
	mu     sync.Mutex
	runs   map[string]*hubRun
	closed bool
}

type hubRun struct {
	islands, count int
	hub            *moea.IslandHub
}

// NewMigrationHub creates an empty hub.
func NewMigrationHub() *MigrationHub {
	return &MigrationHub{runs: make(map[string]*hubRun)}
}

// Close aborts every run's barrier; subsequent exchanges answer 503.
func (h *MigrationHub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, r := range h.runs {
		r.hub.Close()
	}
}

// Forget drops one run's barrier, aborting any islands still waiting in
// it. Coordinators call it when the run reaches a terminal state so a
// long-lived hub does not accumulate dead barriers.
func (h *MigrationHub) Forget(run string) {
	h.mu.Lock()
	r := h.runs[run]
	delete(h.runs, run)
	h.mu.Unlock()
	if r != nil {
		r.hub.Close()
	}
}

// Runs reports how many runs the hub currently tracks.
func (h *MigrationHub) Runs() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.runs)
}

// acquire resolves (creating on first contact) the run's barrier. The
// first request fixes the topology; later requests must agree with it.
func (h *MigrationHub) acquire(req *ExchangeRequest) (*hubRun, int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, http.StatusServiceUnavailable, fmt.Errorf("dist: migration hub closed")
	}
	r := h.runs[req.Run]
	if r == nil {
		if len(h.runs) >= maxHubRuns {
			return nil, http.StatusServiceUnavailable,
				fmt.Errorf("dist: migration hub at its %d-run capacity", maxHubRuns)
		}
		r = &hubRun{islands: req.Islands, count: req.Count, hub: moea.NewIslandHub(req.Islands)}
		h.runs[req.Run] = r
	}
	if r.islands != req.Islands || r.count != req.Count {
		return nil, http.StatusConflict, fmt.Errorf(
			"dist: run %s is %d islands × %d migrants, request says %d × %d",
			req.Run, r.islands, r.count, req.Islands, req.Count)
	}
	return r, http.StatusOK, nil
}

// ServeHTTP handles POST /v1/island/exchange: post, replay the log if one
// came along, block at the barrier (long poll bounded by the request
// context), answer with the routed immigrants.
func (h *MigrationHub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		service.HTTPError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req ExchangeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxExchangeBody)).Decode(&req); err != nil {
		service.HTTPError(w, http.StatusBadRequest, fmt.Sprintf("decoding exchange: %v", err))
		return
	}
	if err := req.validate(); err != nil {
		service.HTTPError(w, http.StatusBadRequest, err.Error())
		return
	}
	run, status, err := h.acquire(&req)
	if err != nil {
		service.HTTPError(w, status, err.Error())
		return
	}
	for _, e := range req.Log {
		if err := run.hub.Seed(req.Island, e.Epoch, e.Migrants); err != nil {
			service.HTTPError(w, http.StatusConflict, err.Error())
			return
		}
	}
	in, err := run.hub.Exchange(r.Context(), req.Island, req.Epoch, req.Migrants)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; it will re-post idempotently
		}
		// Poisoned barrier: a peer died or replayed divergent state. 409
		// is permanent for the client — retrying cannot unpoison the run.
		service.HTTPError(w, http.StatusConflict, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ExchangeResponse{Migrants: in})
}

// IslandExchanger is the client half: a moea-compatible Exchange transport
// that posts to a MigrationHub endpoint. One exchanger serves all islands
// a process runs — the island index arrives per call, matching
// moea.IslandConfig.Exchange. Transient failures (transport errors, 5xx)
// retry with backoff; the hub's idempotent posts make blind re-posting
// safe. 4xx answers are permanent.
type IslandExchanger struct {
	// BaseURL is the hub's base URL (normalized, no trailing slash).
	BaseURL string
	// Run identifies the logical run; all its islands must use the same ID.
	Run string
	// Islands and Count are the run topology the hub enforces.
	Islands int
	Count   int
	// Token, when non-empty, is sent as a bearer token (the gateway's
	// worker token or the daemon's auth token).
	Token string
	// Client is the HTTP client (default http.DefaultClient). Exchanges
	// long-poll at the barrier, so it must not carry a short Timeout.
	Client *http.Client
	// Backoff paces transient retries (default NewBackoff defaults).
	Backoff *Backoff
	// Retries bounds consecutive transient failures per exchange
	// (default 8).
	Retries int

	mu     sync.Mutex
	replay map[int][]moea.EpochMigrants
}

// SeedLog registers an island's checkpointed migration log for replay: the
// next exchange of that island carries it, reseeding a hub that may have
// been created after the island's earlier epochs. Call before resuming.
func (e *IslandExchanger) SeedLog(island int, log []moea.EpochMigrants) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.replay == nil {
		e.replay = make(map[int][]moea.EpochMigrants)
	}
	e.replay[island] = log
}

// Exchange implements the migration transport against the HTTP hub.
func (e *IslandExchanger) Exchange(ctx context.Context, island, epoch int, out []moea.Migrant) ([]moea.Migrant, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	replay := e.replay[island]
	e.mu.Unlock()
	req := ExchangeRequest{
		Run:      e.Run,
		Island:   island,
		Islands:  e.Islands,
		Count:    e.Count,
		Epoch:    epoch,
		Migrants: out,
		Log:      replay,
	}
	blob, err := json.Marshal(&req)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding exchange: %w", err)
	}
	client := e.Client
	if client == nil {
		client = http.DefaultClient
	}
	backoff := e.Backoff
	if backoff == nil {
		backoff = NewBackoff(0, 0)
	}
	retries := e.Retries
	if retries <= 0 {
		retries = 8
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > retries {
				return nil, fmt.Errorf("dist: island %d epoch %d exchange: retries exhausted: %w",
					island, epoch, lastErr)
			}
			if !backoff.Sleep(ctx, attempt) {
				return nil, ctx.Err()
			}
		}
		in, permanent, err := e.once(ctx, client, blob)
		if err == nil {
			e.mu.Lock()
			delete(e.replay, island) // the hub holds our history now
			e.mu.Unlock()
			return in, nil
		}
		if permanent || ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
	}
}

// once performs a single exchange round trip. The second result reports
// whether the failure is permanent (retrying cannot help).
func (e *IslandExchanger) once(ctx context.Context, client *http.Client, body []byte) ([]moea.Migrant, bool, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		e.BaseURL+"/v1/island/exchange", bytes.NewReader(body))
	if err != nil {
		return nil, true, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if e.Token != "" {
		httpReq.Header.Set("Authorization", "Bearer "+e.Token)
	}
	resp, err := client.Do(httpReq)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", errTransient, err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxExchangeBody))
	if err != nil {
		return nil, false, fmt.Errorf("%w: reading exchange response: %v", errTransient, err)
	}
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("dist: exchange: %s: %s", resp.Status, bytes.TrimSpace(blob))
		// 5xx says nothing about the run; everything else is permanent
		// (bad request, auth, topology conflict, poisoned barrier).
		return nil, resp.StatusCode < 500, err
	}
	var er ExchangeResponse
	if err := json.Unmarshal(blob, &er); err != nil {
		return nil, true, fmt.Errorf("dist: decoding exchange response: %w", err)
	}
	for i, m := range er.Migrants {
		if err := moea.ValidateMigrant(m); err != nil {
			return nil, true, fmt.Errorf("dist: immigrant %d: %w", i, err)
		}
	}
	return er.Migrants, true, nil
}
