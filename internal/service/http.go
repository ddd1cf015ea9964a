package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Request-path pieces of the job API that clrearlyd and the gateway share,
// so both answer byte-for-byte alike.

// ParseSpec decodes a job spec strictly (an unknown field, such as one a
// later build removed, is an error naming it), normalizes it and hashes it.
// Submissions and store recovery both parse through it, so a spec a server
// would refuse at the door is never run from its journal either.
func ParseSpec(data []byte) (JobSpec, string, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, "", fmt.Errorf("decoding job spec: %w", err)
	}
	if err := spec.Normalize(); err != nil {
		return JobSpec{}, "", err
	}
	return spec, spec.Hash(), nil
}

// DecodeSpec reads a submitted job spec (its body capped at maxBytes when
// positive) and parses it with ParseSpec. A spec that does not decode or
// validate is answered here, with 413 or 400, and ok is false.
func DecodeSpec(w http.ResponseWriter, r *http.Request, maxBytes int64) (spec JobSpec, hash string, ok bool) {
	if maxBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			HTTPError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("job spec exceeds %d-byte limit", tooLarge.Limit))
			return spec, "", false
		}
		HTTPError(w, http.StatusBadRequest, fmt.Sprintf("decoding job spec: %v", err))
		return spec, "", false
	}
	if spec, hash, err = ParseSpec(data); err != nil {
		HTTPError(w, http.StatusBadRequest, err.Error())
		return spec, "", false
	}
	return spec, hash, true
}

// ServeWait is the long-poll companion of GET /v1/jobs/{id}: it blocks
// until j is terminal or the "timeout" query parameter (default 30s,
// capped at 5m) elapses, then answers with j's status. Remote sweep
// coordinators use it to await cells without busy polling.
func ServeWait(w http.ResponseWriter, r *http.Request, j *Job) {
	d := 30 * time.Second
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		parsed, err := time.ParseDuration(raw)
		if err != nil || parsed <= 0 {
			HTTPError(w, http.StatusBadRequest, fmt.Sprintf("bad timeout %q", raw))
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
	WriteJSON(w, http.StatusOK, j.Wire(true))
}

// ServeEvents streams j's per-generation progress as server-sent events:
// a "status" event, the latest progress snapshot, live "progress" events,
// and one terminal event named after the final state that carries the
// front of a done job.
func ServeEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		HTTPError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// Coalescing buffer: the run never blocks on a slow consumer (see
	// Publish). Replaying the latest snapshot lets a subscriber that joins
	// late — or after a fast job already finished — still observe progress;
	// duplicates are harmless because progress events are snapshots.
	sub := make(chan ProgressWire, 16)
	j.Lock()
	j.subs[sub] = struct{}{}
	last := j.Progress
	j.Unlock()
	defer func() {
		j.Lock()
		delete(j.subs, sub)
		j.Unlock()
	}()

	writeSSE(w, "status", j.Wire(false))
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
					final := j.Wire(true)
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

// Healthz is the liveness probe, GET /healthz.
func Healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// WriteJSON writes v as an indented JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// HTTPError writes {"error": msg} with the given status.
func HTTPError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
