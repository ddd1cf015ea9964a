package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// httpClient is shared by every client goroutine; the idle pool is sized
// for the open loop's concurrent requests.
var httpClient = &http.Client{
	Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256},
	Timeout:   2 * time.Minute,
}

// wireJob is the benchmark's decode of a job status response. The front
// stays raw so duplicates can be compared byte for byte.
type wireJob struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	SpecHash    string          `json:"spec_hash"`
	Cached      bool            `json:"cached"`
	Error       string          `json:"error"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at"`
	FinishedAt  *time.Time      `json:"finished_at"`
	Front       json.RawMessage `json:"front"`
}

// outcome is what a client observed for one request.
type outcome struct {
	Index  int
	Status int // HTTP status of the submission
	Job    wireJob
	Front  []byte // compacted front JSON
	// Origin is when the request's latency starts: its due time in an open
	// loop, the send time in a closed loop. Sent, Admitted and Done are
	// client clock readings.
	Origin, Sent, Admitted, Done time.Time
	Err                          error
}

func (o *outcome) latency() time.Duration { return o.Done.Sub(o.Origin) }

// runJob submits one request and waits for its front, via /wait or, for
// SSE requests, the /events stream.
func runJob(ctx context.Context, base string, gw bool, j *job, origin time.Time) outcome {
	o := outcome{Index: j.Index, Origin: origin, Sent: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(j.Body))
	if err != nil {
		o.Err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	auth(req, gw, j)
	resp, err := httpClient.Do(req)
	if err != nil {
		o.Err = fmt.Errorf("submit: %w", err)
		return o
	}
	o.Status = resp.StatusCode
	err = decodeBody(resp, &o.Job)
	o.Admitted = time.Now()
	if err != nil {
		o.Err = fmt.Errorf("submit: %w", err)
		return o
	}
	if o.Status != http.StatusOK && o.Status != http.StatusAccepted {
		o.Err = fmt.Errorf("submit: HTTP %d", o.Status)
		return o
	}
	if o.Job.State != "done" || o.Job.Front == nil {
		if j.SSE {
			err = waitEvents(ctx, base, gw, j, o.Job.ID, &o.Job)
		} else {
			err = waitPoll(ctx, base, gw, j, o.Job.ID, &o.Job)
		}
	}
	o.Done = time.Now()
	if err != nil {
		o.Err = err
		return o
	}
	var buf bytes.Buffer
	if len(o.Job.Front) > 0 {
		if err := json.Compact(&buf, o.Job.Front); err != nil {
			o.Err = fmt.Errorf("front: %w", err)
			return o
		}
	}
	o.Front = buf.Bytes()
	return o
}

func auth(req *http.Request, gw bool, j *job) {
	if gw {
		req.Header.Set("X-API-Key", fleetTenants[j.Tenant].Key)
	}
}

func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitPoll long-polls /wait until the job is terminal.
func waitPoll(ctx context.Context, base string, gw bool, j *job, id string, out *wireJob) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/wait?timeout=60s", nil)
		if err != nil {
			return err
		}
		auth(req, gw, j)
		resp, err := httpClient.Do(req)
		if err != nil {
			return fmt.Errorf("wait: %w", err)
		}
		if err := decodeBody(resp, out); err != nil {
			return fmt.Errorf("wait: %w", err)
		}
		switch out.State {
		case "done", "failed", "cancelled":
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
}

// waitEvents reads the job's SSE stream until the terminal event, whose
// data is the final job status with its front.
func waitEvents(ctx context.Context, base string, gw bool, j *job, id string, out *wireJob) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	auth(req, gw, j)
	resp, err := httpClient.Do(req)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "done", "failed", "cancelled":
				return json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), out)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	return fmt.Errorf("events: stream ended before a terminal event")
}

// fetchMetrics decodes a GET /metrics payload into v.
func fetchMetrics(base string, v any) error {
	resp, err := httpClient.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	if err := decodeBody(resp, v); err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	return nil
}
