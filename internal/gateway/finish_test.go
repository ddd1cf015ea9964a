package gateway

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// TestFinishJournaledBeforePublish holds the store's finish append while
// an agent completes a lease, and requires the tenant's /wait to stay
// blocked until the finish record is written.
func TestFinishJournaledBeforePublish(t *testing.T) {
	entered, release := make(chan string, 1), make(chan struct{})
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever, FinishHook: func(id string) error {
		entered <- id
		<-release
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts := newTestGateway(t, Config{Store: st, ProbeEvery: -1})

	jw, resp := submitSpec(t, ts, "key1", service.JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 3, Seed: 5})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	// The agent joins after the 202, so the job cannot finish before it.
	startAgent(t, AgentConfig{Gateway: ts.URL, Name: "w0"})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	t.Cleanup(open) // runs before the agent and gateway teardown, even on failure
	waited := make(chan *service.JobWire, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+jw.ID+"/wait?timeout=60s", nil)
		req.Header.Set("X-API-Key", "key1")
		var out *service.JobWire
		if resp, err := http.DefaultClient.Do(req); err == nil {
			var w service.JobWire
			if json.NewDecoder(resp.Body).Decode(&w) == nil {
				out = &w
			}
			resp.Body.Close()
		}
		waited <- out
	}()
	select {
	case id := <-entered:
		if id != jw.ID {
			t.Fatalf("finish journaled for %s, want %s", id, jw.ID)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached its finish append")
	}
	select {
	case w := <-waited:
		t.Fatalf("/wait returned %+v while the finish record was unwritten", w)
	case <-time.After(200 * time.Millisecond):
	}
	open()
	w := <-waited
	if w == nil || w.State != service.StateDone {
		t.Fatalf("/wait after the append = %+v, want done", w)
	}
	if _, ok := st.Result(jw.SpecHash); !ok {
		t.Fatal("done front not in the result store after /wait returned")
	}
}
