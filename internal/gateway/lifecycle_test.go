package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// lifecycleServers are the two fronts of the shared job lifecycle: the
// daemon, and a gateway with one in-process agent. Requests carry the
// gateway tenant's API key, which the open daemon ignores.
var lifecycleServers = []struct {
	name  string
	start func(t *testing.T) *httptest.Server
}{
	{"clrearlyd", func(t *testing.T) *httptest.Server {
		s := service.New(service.Config{Workers: 1})
		ts := httptest.NewServer(s)
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
		return ts
	}},
	{"gateway", func(t *testing.T) *httptest.Server {
		// No rate limit: the retention test resubmits far beyond any burst.
		tenant := TenantConfig{Name: "t1", Key: "key1", MaxActive: -1}
		_, ts := newTestGateway(t, Config{Tenants: []TenantConfig{tenant}, ProbeEvery: -1})
		startAgent(t, AgentConfig{Gateway: ts.URL, Name: "w0"})
		return ts
	}},
}

// do sends one tenant request and returns the status and body.
func do(ts *httptest.Server, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-API-Key", "key1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func call(t *testing.T, ts *httptest.Server, method, path string, body []byte) (int, []byte) {
	t.Helper()
	status, raw, err := do(ts, method, path, body)
	if err != nil {
		t.Fatal(err)
	}
	return status, raw
}

// rawJob is a job status whose front keeps its bytes, compacted so the
// indented JSON of the API and the one-line SSE data compare equal.
type rawJob struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Cached bool            `json:"cached"`
	Front  json.RawMessage `json:"front"`
}

func decodeJob(t *testing.T, raw []byte) rawJob {
	t.Helper()
	var j rawJob
	if err := json.Unmarshal(raw, &j); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	var buf bytes.Buffer
	if len(j.Front) > 0 {
		if err := json.Compact(&buf, j.Front); err != nil {
			t.Fatal(err)
		}
		j.Front = buf.Bytes()
	}
	return j
}

// eventNames reads a job's SSE stream to its terminal event and returns
// the event names in order plus the terminal event's job status.
func eventNames(t *testing.T, ts *httptest.Server, id string) ([]string, rawJob) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "key1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	var names []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	name := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
			names = append(names, name)
		case strings.HasPrefix(line, "data: ") && name != "status" && name != "progress":
			return names, decodeJob(t, []byte(strings.TrimPrefix(line, "data: ")))
		}
	}
	t.Fatalf("event stream ended without a terminal event: %v", names)
	return nil, rawJob{}
}

// TestLifecycleContract pins the wire contract both servers share: status
// codes of submit, a spec with a removed field, bad /wait timeouts and
// unknown IDs; the SSE event order;
// byte-identical fronts across /events, /wait and a cached resubmission;
// and the listing.
func TestLifecycleContract(t *testing.T) {
	body, err := json.Marshal(service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 3, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	for _, srv := range lifecycleServers {
		t.Run(srv.name, func(t *testing.T) {
			ts := srv.start(t)
			status, raw := call(t, ts, http.MethodPost, "/v1/jobs", body)
			if status != http.StatusAccepted {
				t.Fatalf("submit = %d %s, want 202", status, raw)
			}
			first := decodeJob(t, raw)

			if status, _ := call(t, ts, http.MethodGet, "/v1/jobs/"+first.ID+"/wait?timeout=bogus", nil); status != http.StatusBadRequest {
				t.Fatalf("bad timeout = %d, want 400", status)
			}
			removed := []byte(`{"surrogate":true,"surrogate_fraction":0.6}`)
			if status, raw := call(t, ts, http.MethodPost, "/v1/jobs", removed); status != http.StatusBadRequest || !bytes.Contains(raw, []byte("surrogate")) {
				t.Fatalf("spec with a removed field = %d %s, want 400 naming it", status, raw)
			}
			for _, r := range []struct{ method, path string }{
				{http.MethodGet, "/v1/jobs/nope"},
				{http.MethodGet, "/v1/jobs/nope/wait"},
				{http.MethodGet, "/v1/jobs/nope/events"},
				{http.MethodDelete, "/v1/jobs/nope"},
			} {
				if status, _ := call(t, ts, r.method, r.path, nil); status != http.StatusNotFound {
					t.Fatalf("%s %s = %d, want 404", r.method, r.path, status)
				}
			}

			names, final := eventNames(t, ts, first.ID)
			if names[0] != "status" || names[len(names)-1] != service.StateDone {
				t.Fatalf("events %v: want status, progress..., done", names)
			}
			for _, n := range names[1 : len(names)-1] {
				if n != "progress" {
					t.Fatalf("events %v: want status, progress..., done", names)
				}
			}
			status, raw = call(t, ts, http.MethodGet, "/v1/jobs/"+first.ID+"/wait?timeout=30s", nil)
			waited := decodeJob(t, raw)
			if status != http.StatusOK || waited.State != service.StateDone || len(waited.Front) == 0 {
				t.Fatalf("wait = %d %s, want 200 done with a front", status, raw)
			}
			if !bytes.Equal(final.Front, waited.Front) {
				t.Fatalf("terminal event front differs from /wait:\n%s\n%s", final.Front, waited.Front)
			}

			status, raw = call(t, ts, http.MethodPost, "/v1/jobs", body)
			again := decodeJob(t, raw)
			if status != http.StatusOK || !again.Cached || again.ID == first.ID {
				t.Fatalf("resubmit = %d %s, want 200 cached as a new job", status, raw)
			}
			if !bytes.Equal(again.Front, waited.Front) {
				t.Fatalf("cached front differs:\n%s\n%s", again.Front, waited.Front)
			}

			status, raw = call(t, ts, http.MethodGet, "/v1/jobs", nil)
			var list struct{ Jobs []rawJob }
			if err := json.Unmarshal(raw, &list); status != http.StatusOK || err != nil {
				t.Fatalf("list = %d %s (%v)", status, raw, err)
			}
			if len(list.Jobs) != 2 || list.Jobs[0].ID != first.ID || list.Jobs[1].ID != again.ID {
				t.Fatalf("list %s, want jobs %s and %s", raw, first.ID, again.ID)
			}
		})
	}
}

// TestTerminalJobsBounded checks each server keeps at most
// service.MaxTerminalJobs finished jobs: a flood of cache-hit
// resubmissions evicts the oldest-finished records (404) while the newest
// stay readable, and the spec is still served by hash.
func TestTerminalJobsBounded(t *testing.T) {
	body, err := json.Marshal(service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	const resubmits = 1100
	for _, srv := range lifecycleServers {
		t.Run(srv.name, func(t *testing.T) {
			ts := srv.start(t)
			status, raw := call(t, ts, http.MethodPost, "/v1/jobs", body)
			if status != http.StatusAccepted {
				t.Fatalf("submit = %d %s, want 202", status, raw)
			}
			ids := []string{decodeJob(t, raw).ID}
			if status, raw := call(t, ts, http.MethodGet, "/v1/jobs/"+ids[0]+"/wait?timeout=30s", nil); decodeJob(t, raw).State != service.StateDone {
				t.Fatalf("first job: %d %s", status, raw)
			}
			// Resubmit from several clients at once, so the table is filed
			// and trimmed concurrently. Each cached job is finished when it
			// is numbered, so ID order is finish order.
			const clients = 4
			got := make([][]string, clients)
			var wg sync.WaitGroup
			for c := range got {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < resubmits/clients; i++ {
						status, raw, err := do(ts, http.MethodPost, "/v1/jobs", body)
						var j rawJob
						if err == nil {
							err = json.Unmarshal(raw, &j)
						}
						if status != http.StatusOK || err != nil || !j.Cached {
							t.Errorf("resubmission = %d %s (%v), want 200 cached", status, raw, err)
							return
						}
						got[c] = append(got[c], j.ID)
					}
				}(c)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for _, g := range got {
				ids = append(ids, g...)
			}
			sort.Strings(ids)

			status, raw = call(t, ts, http.MethodGet, "/v1/jobs", nil)
			var list struct{ Jobs []rawJob }
			if err := json.Unmarshal(raw, &list); status != http.StatusOK || err != nil {
				t.Fatalf("list = %d (%v)", status, err)
			}
			if len(list.Jobs) != service.MaxTerminalJobs {
				t.Fatalf("%d jobs listed after %d terminal ones, want %d", len(list.Jobs), len(ids), service.MaxTerminalJobs)
			}
			evicted := len(ids) - service.MaxTerminalJobs
			for _, id := range []string{ids[0], ids[evicted-1]} {
				if status, _ := call(t, ts, http.MethodGet, "/v1/jobs/"+id, nil); status != http.StatusNotFound {
					t.Fatalf("evicted job %s = %d, want 404", id, status)
				}
			}
			for _, id := range []string{ids[evicted], ids[len(ids)-1]} {
				if status, _ := call(t, ts, http.MethodGet, "/v1/jobs/"+id, nil); status != http.StatusOK {
					t.Fatalf("retained job %s = %d, want 200", id, status)
				}
			}
			if status, raw := call(t, ts, http.MethodPost, "/v1/jobs", body); status != http.StatusOK || !decodeJob(t, raw).Cached {
				t.Fatalf("resubmission after eviction = %d %s, want 200 cached", status, raw)
			}
		})
	}
}
