package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/relmodel"
	"repro/internal/service"
)

// TestEdgeBuildsOnlyOnMiss checks the edge build runs only for specs the
// gateway has not routed before: a cache-hit resubmission of a proposed
// spec solves no chains (the counters are process-global, so this test
// does not run under t.Parallel) and gets the identical front, while a
// spec that cannot build still gets 400.
func TestEdgeBuildsOnlyOnMiss(t *testing.T) {
	_, ts := newTestGateway(t, Config{WorkerToken: "wtok", ProbeEvery: -1})
	startAgent(t, AgentConfig{Gateway: ts.URL, Token: "wtok", Name: "w0"})

	spec := service.JobSpec{App: "sobel", Method: "proposed", Pop: 8, Gens: 2, Seed: 31}
	jw, resp := submitSpec(t, ts, "key1", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	first := waitDone(t, ts, "key1", jw.ID, 30*time.Second)

	before := relmodel.PairSolveTotals()
	hit, resp := submitSpec(t, ts, "key1", spec)
	if resp.StatusCode != http.StatusOK || !hit.Cached {
		t.Fatalf("resubmit = %d cached=%t, want 200 cached", resp.StatusCode, hit.Cached)
	}
	if after := relmodel.PairSolveTotals(); after != before {
		t.Fatalf("cache-hit resubmission solved chains: %+v -> %+v", before, after)
	}
	w1, _ := json.Marshal(first.Front)
	w2, _ := json.Marshal(hit.Front)
	if !bytes.Equal(w1, w2) {
		t.Fatalf("cached front differs:\n got %s\nwant %s", w2, w1)
	}

	if _, resp := submitSpec(t, ts, "key1", service.JobSpec{GraphText: "not a task graph"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec = %d, want 400", resp.StatusCode)
	}
}

// TestCrossTenantAttachReadable checks a tenant whose submission attached
// to another tenant's in-flight job can read the job it was handed — GET,
// /wait and /events all return it, front included — but cannot cancel it.
func TestCrossTenantAttachReadable(t *testing.T) {
	b := testTenant()
	b.Name, b.Key = "t2", "key2"
	_, ts := newTestGateway(t, Config{
		Tenants:     []TenantConfig{testTenant(), b},
		WorkerToken: "wtok",
		ProbeEvery:  -1,
	})
	spec := service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 57}
	owned, resp := submitSpec(t, ts, "key1", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant A submit = %d, want 202", resp.StatusCode)
	}
	attached, resp := submitSpec(t, ts, "key2", spec)
	if resp.StatusCode != http.StatusAccepted || attached.ID != owned.ID {
		t.Fatalf("tenant B submit = %d id %s, want 202 attached to %s", resp.StatusCode, attached.ID, owned.ID)
	}
	if got := getWire(t, ts, "key2", "/v1/jobs/"+owned.ID); got.State != service.StateQueued {
		t.Fatalf("tenant B GET state %q, want queued", got.State)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+owned.ID, nil)
	req.Header.Set("X-API-Key", "key2")
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("tenant B DELETE = %d, want 404", dresp.StatusCode)
	}

	startAgent(t, AgentConfig{Gateway: ts.URL, Token: "wtok", Name: "w0"})
	done := waitDone(t, ts, "key2", owned.ID, 30*time.Second)
	if done.Front == nil || len(done.Front.Points) == 0 {
		t.Fatalf("tenant B /wait returned no front: %+v", done)
	}

	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+owned.ID+"/events", nil)
	req.Header.Set("X-API-Key", "key2")
	eresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("tenant B /events = %d, want 200", eresp.StatusCode)
	}
	var final service.JobWire
	sc := bufio.NewScanner(eresp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
		} else if data, ok := strings.CutPrefix(line, "data: "); ok && event == service.StateDone {
			if err := json.Unmarshal([]byte(data), &final); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	w1, _ := json.Marshal(done.Front)
	w2, _ := json.Marshal(final.Front)
	if final.Front == nil || !bytes.Equal(w1, w2) {
		t.Fatalf("tenant B /events terminal front %s, want %s", w2, w1)
	}
}
