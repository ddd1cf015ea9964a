package dist

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/moea"
	"repro/internal/service"
)

// ringProblem is a small deterministic two-objective problem for exercising
// the HTTP barrier: objective 1 rewards low PE indices weighted by schedule
// position, objective 2 rewards high ones, so the front is a genuine
// trade-off and every byte of it reflects the evolution stream.
type ringProblem struct{ n int }

func (p ringProblem) NumTasks() int      { return p.n }
func (p ringProblem) NumObjectives() int { return 2 }
func (p ringProblem) RandomGene(rng *rand.Rand, task int) moea.Gene {
	return moea.Gene{PE: rng.Intn(7), Impl: rng.Intn(5)}
}
func (p ringProblem) MutateGene(rng *rand.Rand, task int, g moea.Gene) moea.Gene {
	g.PE = rng.Intn(7)
	g.Impl = rng.Intn(5)
	return g
}
func (p ringProblem) Evaluate(g *moea.Genome) moea.Evaluation {
	var f1, f2 float64
	for pos, task := range g.Order {
		gene := g.Genes[task]
		w := float64(pos + 1)
		f1 += w * float64(gene.PE+1) * float64(gene.Impl+1)
		f2 += w * float64(7-gene.PE) / float64(gene.Impl+1)
	}
	return moea.Evaluation{Objectives: []float64{f1, f2}}
}

func islandParams(pop, gens int, seed int64) moea.Params {
	p := moea.DefaultParams(pop, gens, seed)
	p.Workers = 1
	return p
}

func resultBytes(t *testing.T, r *moea.Result) string {
	t.Helper()
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func newHubServer(t *testing.T) (*MigrationHub, *httptest.Server) {
	t.Helper()
	hub := NewMigrationHub()
	ts := httptest.NewServer(hub)
	t.Cleanup(func() { ts.Close(); hub.Close() })
	return hub, ts
}

// TestHTTPIslandExchangeMatchesInProcess pins the transport-transparency
// contract: an island run whose migrants travel over HTTP produces the
// byte-identical result of the same run over the in-process hub.
func TestHTTPIslandExchangeMatchesInProcess(t *testing.T) {
	p := ringProblem{n: 8}
	base := islandParams(12, 8, 5)
	cfg := moea.IslandConfig{N: 3, Every: 2, Count: 2}

	ref, err := moea.RunIslands(p, base, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := resultBytes(t, ref)

	hub, ts := newHubServer(t)
	ex := &IslandExchanger{BaseURL: ts.URL, Run: "r1", Islands: 3, Count: 2}
	hcfg := cfg
	hcfg.Exchange = ex.Exchange
	res, err := moea.RunIslands(p, base, nil, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	if resultBytes(t, res) != want {
		t.Fatal("HTTP-exchanged island run diverged from the in-process run")
	}
	if hub.Runs() != 1 {
		t.Fatalf("hub tracks %d runs, want 1", hub.Runs())
	}
	hub.Forget("r1")
	if hub.Runs() != 0 {
		t.Fatalf("hub still tracks %d runs after Forget", hub.Runs())
	}
}

// TestHTTPIslandKillAndResume is the distributed restart story: all
// islands die mid-run (checkpointing on the way down), the hub process is
// replaced, and the islands resume against the fresh hub by replaying
// their checkpointed migration logs through SeedLog — landing on the
// byte-identical front of the never-interrupted run.
func TestHTTPIslandKillAndResume(t *testing.T) {
	p := ringProblem{n: 8}
	base := islandParams(12, 9, 11)
	cfg := moea.IslandConfig{N: 2, Every: 2, Count: 2}

	ref, err := moea.RunIslands(p, base, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := resultBytes(t, ref)

	_, ts1 := newHubServer(t)
	ex1 := &IslandExchanger{BaseURL: ts1.URL, Run: "kr", Islands: 2, Count: 2}

	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	cps := make([]*moea.Checkpoint, cfg.N)
	var mu sync.Mutex
	killed := base
	killed.Ctx = ctx
	kcfg := cfg
	kcfg.Exchange = ex1.Exchange
	kcfg.PerIsland = func(i int, ip *moea.Params) {
		ip.Ctx = ctx
		ip.OnCheckpoint = func(cp *moea.Checkpoint) {
			mu.Lock()
			cps[i] = cp
			mu.Unlock()
		}
		if i == 0 {
			ip.OnGeneration = func(gi moea.GenerationInfo) {
				if gi.Generation == 5 {
					once.Do(cancel)
				}
			}
		}
	}
	if _, err := moea.RunIslands(p, killed, nil, kcfg); err == nil {
		t.Fatal("killed island run returned no error")
	}
	cancel()
	for i, cp := range cps {
		if cp == nil {
			t.Fatalf("island %d left no checkpoint", i)
		}
	}

	// The original hub process is gone; a fresh one takes its place.
	_, ts2 := newHubServer(t)
	ex2 := &IslandExchanger{BaseURL: ts2.URL, Run: "kr", Islands: 2, Count: 2}
	for i, cp := range cps {
		ex2.SeedLog(i, cp.Migration)
	}
	rcfg := cfg
	rcfg.Exchange = ex2.Exchange
	rcfg.PerIsland = func(i int, ip *moea.Params) {
		ip.Resume = cps[i]
	}
	res, err := moea.RunIslands(p, base, nil, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if resultBytes(t, res) != want {
		t.Fatal("resumed-through-fresh-hub run diverged from the uninterrupted run")
	}
}

func postExchange(t *testing.T, url string, req ExchangeRequest) (*http.Response, string) {
	t.Helper()
	blob, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/island/exchange", "application/json", strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp, body.Error
}

func testMigrant(from int) moea.Migrant {
	return moea.Migrant{
		From:       from,
		Order:      []int{0, 1},
		Genes:      []moea.Gene{{PE: 1}, {PE: 2}},
		Objectives: []uint64{math.Float64bits(1.5), math.Float64bits(2.5)},
		Violation:  0,
	}
}

// TestHTTPHubRejects pins the validation surface: malformed posts and
// topology conflicts answer 4xx without touching any barrier.
func TestHTTPHubRejects(t *testing.T) {
	_, ts := newHubServer(t)
	ok := ExchangeRequest{Run: "v", Island: 0, Islands: 2, Count: 2, Epoch: 0,
		Migrants: []moea.Migrant{testMigrant(0)}}

	nan := ok
	bad := testMigrant(0)
	bad.Objectives = []uint64{math.Float64bits(math.NaN()), math.Float64bits(1)}
	nan.Migrants = []moea.Migrant{bad}

	noPerm := ok
	broken := testMigrant(0)
	broken.Order = []int{0, 0}
	noPerm.Migrants = []moea.Migrant{broken}

	cases := []struct {
		name   string
		req    ExchangeRequest
		status int
	}{
		{"no-run", ExchangeRequest{Islands: 2, Count: 2}, http.StatusBadRequest},
		{"one-island", ExchangeRequest{Run: "x", Islands: 1, Count: 1}, http.StatusBadRequest},
		{"island-out-of-range", ExchangeRequest{Run: "x", Island: 5, Islands: 2, Count: 1}, http.StatusBadRequest},
		{"nan-objective", nan, http.StatusBadRequest},
		{"non-permutation", noPerm, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, msg := postExchange(t, ts.URL, tc.req)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, msg, tc.status)
			}
		})
	}

	t.Run("topology-conflict", func(t *testing.T) {
		// A completed 2-island epoch pins run "v"'s topology; a 3-island
		// claim for the same run must then 409.
		var wg sync.WaitGroup
		status := make([]int, 2)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				req := ok
				req.Island = i
				req.Migrants = []moea.Migrant{testMigrant(i)}
				resp, _ := postExchange(t, ts.URL, req)
				status[i] = resp.StatusCode
			}(i)
		}
		wg.Wait()
		for i, s := range status {
			if s != http.StatusOK {
				t.Fatalf("island %d epoch answered %d", i, s)
			}
		}
		conflict := ok
		conflict.Islands = 3
		resp, _ := postExchange(t, ts.URL, conflict)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("topology conflict answered %d, want 409", resp.StatusCode)
		}
	})
}

// TestExchangerRetriesTransient drives both islands of an epoch through a
// front proxy that fails every first attempt with 503: the exchanger must
// retry idempotently and both islands must still receive their ring-routed
// immigrants.
func TestExchangerRetriesTransient(t *testing.T) {
	hub := NewMigrationHub()
	defer hub.Close()
	var firstAttempts sync.Map
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ExchangeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		if _, loaded := firstAttempts.LoadOrStore(req.Island, true); !loaded {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		blob, _ := json.Marshal(&req)
		r2, _ := http.NewRequestWithContext(r.Context(), http.MethodPost, "/v1/island/exchange", strings.NewReader(string(blob)))
		hub.ServeHTTP(w, r2)
	}))
	defer flaky.Close()

	ex := &IslandExchanger{BaseURL: flaky.URL, Run: "fx", Islands: 2, Count: 2,
		Backoff: NewBackoff(1, 2)}
	var got [2][]moea.Migrant
	var errs [2]error
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = ex.Exchange(context.Background(), i, 0, []moea.Migrant{testMigrant(i)})
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("island %d exchange failed: %v", i, errs[i])
		}
		if len(got[i]) != 1 || got[i][0].From != 1-i {
			t.Fatalf("island %d received %+v, want one migrant from island %d", i, got[i], 1-i)
		}
	}
}

// TestExchangerPermanentErrors pins the no-retry contract for 4xx answers.
func TestExchangerPermanentErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		service.HTTPError(w, http.StatusConflict, "poisoned")
	}))
	defer srv.Close()
	ex := &IslandExchanger{BaseURL: srv.URL, Run: "px", Islands: 2, Count: 1,
		Backoff: NewBackoff(1, 2)}
	if _, err := ex.Exchange(context.Background(), 0, 0, nil); err == nil {
		t.Fatal("409 answer produced no error")
	}
	if calls.Load() != 1 {
		t.Fatalf("permanent failure retried: %d calls", calls.Load())
	}
}
