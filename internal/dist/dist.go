// Package dist runs DSE sweeps through one /v1/jobs endpoint: a clrearlygw
// gateway, which spreads the work over its fleet, or a single clrearlyd. A
// Coordinator submits each cell (one JobSpec or one local closure) with the
// endpoint's API key, long-polls the job to a terminal state, retries
// transient failures with backoff, and falls back to local execution when
// the endpoint cannot produce a result. Placing cells on workers, detecting
// dead workers and redelivering their jobs are the gateway's business,
// through its leases (DESIGN.md §11).
//
// Determinism contract: a distributed run produces byte-identical output to
// a single-node run regardless of which workers ran the cells, retries,
// redeliveries or mid-sweep worker death. Three properties make that hold:
//
//  1. Specs are self-contained — a worker rebuilds the exact instance from
//     seeds, so the remote front equals the local front bit-for-bit (JSON
//     float64 round trips are exact, archive order travels on the wire).
//  2. Results are stored per cell and merged by the caller in cell order,
//     never in completion order.
//  3. Every failure path (endpoint down, timeout, deterministic job
//     failure) ends in cell.Local(), which is ground truth.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sweep"
)

// The remote policy. One attempt is a submit plus the long-poll of the job
// to a terminal state.
const (
	cellTimeout = 10 * time.Minute // bounds one attempt, over-capacity waits included
	maxAttempts = 3                // remote attempts before the local fallback
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
	// waitSlice is the long-poll window per /wait request, and the longest
	// wait before resubmitting after an over-capacity answer.
	waitSlice = 2 * time.Second
	// waitRetries is how many consecutive transient wait failures (endpoint
	// dead or answering 5xx) an attempt rides out on the same job ID, one
	// waitSlice each, before it gives up. Durable servers resume their jobs
	// after a restart, so waiting keeps mid-evolution progress that a
	// resubmission would throw away.
	waitRetries = 15
)

// errPermanent wraps a failure that another attempt would repeat: the job
// failed deterministically, or the endpoint refused the spec or the key.
// The coordinator skips retries and falls back to the local path, which
// reproduces the canonical outcome.
var errPermanent = errors.New("dist: permanent failure")

// errTransient wraps failures that say nothing about the job itself — the
// transport broke or the endpoint answered 5xx (dead, restarting, or behind
// a recovering proxy).
var errTransient = errors.New("dist: transient endpoint failure")

// Cell is one shardable unit of a sweep.
type Cell struct {
	// Spec is the remote form of the cell. A nil Spec pins the cell to the
	// local path (e.g. ablation cells with no wire representation).
	Spec *service.JobSpec
	// Local computes the cell in-process. It is the fallback for every
	// remote failure and the ground truth for determinism.
	Local func() (*core.Front, error)
	// Store receives the cell's front. The coordinator calls it from the
	// dispatching goroutine; callers writing to shared state should store
	// into per-cell slots and merge after Run returns.
	Store func(*core.Front)
}

// Coordinator runs cells through one /v1/jobs endpoint. It is safe for
// concurrent use.
type Coordinator struct {
	url, key string
	client   *http.Client

	// The policy durations, shortened by tests.
	cellTimeout time.Duration
	waitSlice   time.Duration
	backoff     *Backoff

	remote, localOnly, fallbacks, retries atomic.Int64
}

// New returns a coordinator for the /v1/jobs endpoint at url ("host:port"
// or a base URL) that presents key as a bearer token when key is non-empty.
// An empty url runs every cell locally. A comma-separated list is refused:
// several daemons are reached through a clrearlygw gateway in front of
// them.
func New(url, key string) (*Coordinator, error) {
	if strings.Contains(url, ",") {
		return nil, fmt.Errorf("dist: %q names several endpoints; run clrearlygw in front of the daemons and pass its URL", url)
	}
	return &Coordinator{
		url:         NormalizeURL(url),
		key:         key,
		client:      &http.Client{},
		cellTimeout: cellTimeout,
		waitSlice:   waitSlice,
		backoff:     NewBackoff(backoffBase, backoffMax),
	}, nil
}

// RunLocal executes cells entirely in-process with the sweep engine,
// storing each front as its cell completes. It is the endpoint-less path of
// Coordinator.Run and the determinism baseline in tests.
func RunLocal(jobs int, cells []Cell) error {
	return (&Coordinator{}).Run(context.Background(), jobs, cells)
}

// Run executes cells through the endpoint, at most jobs at a time (≤ 0
// means GOMAXPROCS), falling back to local execution when no endpoint is
// set or a cell exhausts its remote attempts. Errors follow the sweep
// engine's rule: the error of the lowest-indexed failing cell wins, so
// error output is deterministic too.
func (c *Coordinator) Run(ctx context.Context, jobs int, cells []Cell) error {
	tasks := make([]func() error, len(cells))
	for i := range cells {
		cell := &cells[i]
		tasks[i] = func() error {
			front, err := c.execute(ctx, cell)
			if err != nil {
				return err
			}
			if cell.Store != nil && front != nil {
				cell.Store(front)
			}
			return nil
		}
	}
	return sweep.RunCtx(ctx, jobs, tasks)
}

// RunOne pushes a single spec through the coordinator — remote attempts,
// then the local fallback — and returns its front.
func (c *Coordinator) RunOne(ctx context.Context, spec *service.JobSpec, local func() (*core.Front, error)) (*core.Front, error) {
	var out *core.Front
	cell := Cell{Spec: spec, Local: local, Store: func(f *core.Front) { out = f }}
	if err := c.Run(ctx, 1, []Cell{cell}); err != nil {
		return nil, err
	}
	return out, nil
}

// execute resolves one cell to a front: remote attempts with backoff, then
// the local fallback.
func (c *Coordinator) execute(ctx context.Context, cell *Cell) (*core.Front, error) {
	if cell.Spec == nil || c.url == "" {
		c.localOnly.Add(1)
		return cell.Local()
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			if !c.backoff.Sleep(ctx, attempt) {
				break
			}
			c.retries.Add(1)
		}
		fw, err := c.runJob(ctx, cell.Spec)
		if err == nil {
			c.remote.Add(1)
			return service.FrontFromWire(fw), nil
		}
		// Permanent failures and dead contexts gain nothing from another
		// attempt; local execution reproduces the canonical outcome
		// (including the canonical error, if any).
		if errors.Is(err, errPermanent) || ctx.Err() != nil {
			break
		}
	}
	c.fallbacks.Add(1)
	return cell.Local()
}

// runJob is one timed remote attempt: submit the spec, then long-poll the
// job to a terminal state. A failed job maps to errPermanent.
//
// A transient wait failure does not abandon the job: a durable clrearlyd
// or gateway re-enqueues and resumes it under the same ID after a restart,
// so runJob keeps polling it for up to waitRetries slices before it gives
// the attempt up.
func (c *Coordinator) runJob(ctx context.Context, spec *service.JobSpec) (*service.FrontWire, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cellTimeout)
	defer cancel()
	jw, err := c.submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	retries := 0
	for {
		switch jw.State {
		case service.StateDone:
			// A submission that attached as the job finished is answered
			// without the front; the next /wait returns it at once.
			if jw.Front != nil {
				return jw.Front, nil
			}
		case service.StateFailed:
			return nil, fmt.Errorf("%w: job %s: %s", errPermanent, jw.ID, jw.Error)
		case service.StateCancelled:
			// The coordinator never cancelled this job, so an observed
			// cancel almost always means a daemon aborted it while going
			// down: it reports its jobs cancelled for a moment before the
			// port stops answering, and a durable one resumes them under
			// the same ID once it is back. Ride the state out like a
			// transport outage; only a genuine external cancel keeps
			// answering cancelled until the retry budget runs dry.
			if retries >= waitRetries || !sleepCtx(ctx, c.waitSlice) {
				return nil, fmt.Errorf("dist: job %s cancelled remotely", jw.ID)
			}
			retries++
		}
		// Queued, running, or riding out a restart: long-poll for the next
		// state transition.
		var next service.JobWire
		path := fmt.Sprintf("/v1/jobs/%s/wait?timeout=%s", jw.ID, c.waitSlice)
		if _, _, err := c.call(ctx, http.MethodGet, path, nil, &next); err != nil {
			// Ride out the outage: wait one slice (the long-poll window
			// this request would have spent) and poll the same job again.
			if errors.Is(err, errTransient) && retries < waitRetries && sleepCtx(ctx, c.waitSlice) {
				retries++
				continue
			}
			// Abandoned: best-effort cancel, so the endpoint stops burning
			// CPU on a result nobody will read. A 404 (a daemon restarted
			// without a store forgot the job) lands here and resubmits.
			c.cancel(jw.ID)
			return nil, err
		}
		if next.State != service.StateCancelled {
			retries = 0
		}
		jw = &next
	}
}

// submit posts the spec and returns the accepted job's status. An
// over-capacity answer (429 or 503) is not a failed attempt: submit waits
// for the answer's Retry-After, at most one wait slice, and resubmits
// within the attempt's deadline.
func (c *Coordinator) submit(ctx context.Context, spec *service.JobSpec) (*service.JobWire, error) {
	blob, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding spec: %w", err)
	}
	for {
		var jw service.JobWire
		status, header, err := c.call(ctx, http.MethodPost, "/v1/jobs", blob, &jw)
		switch {
		case err == nil:
			return &jw, nil
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			wait := c.waitSlice
			if secs, perr := strconv.Atoi(header.Get("Retry-After")); perr == nil && secs >= 0 {
				wait = min(wait, time.Duration(secs)*time.Second)
			}
			if !sleepCtx(ctx, wait) {
				return nil, err
			}
		case status >= 400 && status < 500:
			// The endpoint refused the spec or the key: every attempt
			// would be refused alike.
			return nil, fmt.Errorf("%w: %v", errPermanent, err)
		default:
			return nil, err
		}
	}
}

// cancel best-effort cancels an abandoned job.
func (c *Coordinator) cancel(id string) {
	ctx, stop := context.WithTimeout(context.Background(), 2*time.Second)
	defer stop()
	c.call(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}

// call sends one authenticated request and decodes a 2xx JSON answer into
// out, returning the status and headers. Any other status is an error;
// transport failures and 5xx answers come back wrapped in errTransient.
func (c *Coordinator) call(ctx context.Context, method, path string, body []byte, out any) (int, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", errTransient, err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, resp.Header, fmt.Errorf("%w: %v", errTransient, err)
	}
	if resp.StatusCode >= 300 {
		err := fmt.Errorf("dist: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(blob))
		if resp.StatusCode >= 500 {
			err = fmt.Errorf("%w: %v", errTransient, err)
		}
		return resp.StatusCode, resp.Header, err
	}
	if out != nil {
		if err := json.Unmarshal(blob, out); err != nil {
			return resp.StatusCode, resp.Header, fmt.Errorf("dist: decoding %s %s response: %w", method, path, err)
		}
	}
	return resp.StatusCode, resp.Header, nil
}

// Metrics is a point-in-time view of a coordinator's cell counters.
type Metrics struct {
	RemoteCells    int64 // cells resolved by the endpoint
	LocalOnlyCells int64 // cells with no wire form, or run without an endpoint
	LocalFallbacks int64 // cells resolved locally after remote failures
	Retries        int64 // remote attempts after the first
}

// Metrics snapshots the coordinator's counters.
func (c *Coordinator) Metrics() Metrics {
	return Metrics{
		RemoteCells:    c.remote.Load(),
		LocalOnlyCells: c.localOnly.Load(),
		LocalFallbacks: c.fallbacks.Load(),
		Retries:        c.retries.Load(),
	}
}

// String renders the snapshot as one summary line.
func (m Metrics) String() string {
	return fmt.Sprintf("coordinator: %d remote, %d local-only, %d local-fallback, %d retries\n",
		m.RemoteCells, m.LocalOnlyCells, m.LocalFallbacks, m.Retries)
}

// sleepCtx sleeps for d, returning false if ctx ends first. A nil ctx
// sleeps unconditionally.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if ctx == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
