package dist_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gateway"
	"repro/internal/service"
)

// endpoint is an in-process /v1/jobs endpoint that can be killed and
// resurrected mid-sweep: a httptest server forwarding to a swappable
// handler, a gateway or a real service.Server. While dead it answers 502
// to everything, as a proxy in front of a dead process would.
type endpoint struct {
	srv *httptest.Server

	mu      sync.Mutex
	inner   http.Handler
	factory func() http.Handler // builds the replacement on resurrect

	submits atomic.Int64
	bounced atomic.Int64 // requests answered 502 while down
}

func newEndpoint(t *testing.T, factory func() http.Handler) *endpoint {
	t.Helper()
	e := &endpoint{inner: factory(), factory: factory}
	e.srv = httptest.NewServer(e)
	t.Cleanup(func() {
		e.kill()
		e.srv.Close()
	})
	return e
}

// newDaemon is an endpoint backed by a clrearlyd built by factory; a
// factory closing over a shared store yields a durable daemon that resumes
// its jobs after resurrection.
func newDaemon(t *testing.T, factory func() *service.Server) *endpoint {
	return newEndpoint(t, func() http.Handler { return factory() })
}

func newService() *service.Server {
	return service.New(service.Config{Workers: 2, QueueCap: 64})
}

func (e *endpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e.mu.Lock()
	inner := e.inner
	e.mu.Unlock()
	if inner == nil {
		e.bounced.Add(1)
		http.Error(w, "endpoint down", http.StatusBadGateway)
		return
	}
	if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
		e.submits.Add(1)
	}
	inner.ServeHTTP(w, r)
}

// kill takes the endpoint down hard: requests get 502, and a daemon's
// running jobs are aborted (their GAs stop within a generation), as if the
// process died.
func (e *endpoint) kill() {
	e.mu.Lock()
	inner := e.inner
	e.inner = nil
	e.mu.Unlock()
	if s, ok := inner.(*service.Server); ok {
		expired, cancel := context.WithCancel(context.Background())
		cancel()
		s.Shutdown(expired)
	}
}

// resurrect brings a fresh process up behind the same URL — empty, unless
// its factory recovers state from a durable store.
func (e *endpoint) resurrect() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inner == nil {
		e.inner = e.factory()
	}
}

const tenantKey = "sweep-key"

// fleet is an in-process clrearlygw with one tenant, fronted by a counting
// endpoint; agents join it with join.
type fleet struct {
	*endpoint
	gw *gateway.Gateway
}

func newFleet(t *testing.T, tenant gateway.TenantConfig, leaseTTL time.Duration) *fleet {
	t.Helper()
	tenant.Name, tenant.Key = "sweep", tenantKey
	gw, err := gateway.New(gateway.Config{
		Tenants:     []gateway.TenantConfig{tenant},
		WorkerToken: "fleet-token",
		LeaseTTL:    leaseTTL,
		ProbeEvery:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return &fleet{endpoint: newEndpoint(t, func() http.Handler { return gw }), gw: gw}
}

// unlimited is a tenant that admission control never refuses.
func unlimited() gateway.TenantConfig {
	return gateway.TenantConfig{RatePerSec: 1000, Burst: 1000, MaxActive: -1}
}

// agent returns an agent leasing from the fleet and a start func that
// runs it until the test ends; a nil exec runs specs with service.Execute.
// The cleanup is registered here, so start may run on any goroutine.
func (f *fleet) agent(t *testing.T, name string, exec gateway.ExecFunc) (*gateway.Agent, func()) {
	t.Helper()
	a, err := gateway.NewAgent(gateway.AgentConfig{
		Gateway: f.srv.URL, Token: "fleet-token", Name: name,
		PollTimeout: 100 * time.Millisecond, Exec: exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var once sync.Once
	start := func() { once.Do(func() { go func() { defer close(done); a.Run(ctx) }() }) }
	t.Cleanup(func() { cancel(); once.Do(func() { close(done) }); <-done })
	return a, start
}

// join starts an agent leasing from the fleet.
func (f *fleet) join(t *testing.T, name string, exec gateway.ExecFunc) *gateway.Agent {
	t.Helper()
	a, start := f.agent(t, name, exec)
	start()
	return a
}

// metrics reads the gateway's /metrics.
func (f *fleet) metrics(t *testing.T) gateway.MetricsWire {
	t.Helper()
	resp, err := http.Get(f.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m gateway.MetricsWire
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func newCoordinator(t *testing.T, url, key string) *dist.Coordinator {
	t.Helper()
	c, err := dist.NewFast(url, key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testSpec(t *testing.T, method string, seed int64) *service.JobSpec {
	t.Helper()
	s := &service.JobSpec{App: "sobel", Method: method, Pop: 10, Gens: 3, Seed: seed}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

// testCells builds one cell per spec, storing fronts into out by index.
func testCells(specs []*service.JobSpec, out []*core.Front) []dist.Cell {
	cells := make([]dist.Cell, len(specs))
	for i, s := range specs {
		i, s := i, s
		cells[i] = dist.Cell{
			Spec:  s,
			Local: func() (*core.Front, error) { return service.Execute(context.Background(), s, nil) },
			Store: func(f *core.Front) { out[i] = f },
		}
	}
	return cells
}

// sweepSpecs is a small mixed workload: every remote-capable method family
// appears at least once.
func sweepSpecs(t *testing.T) []*service.JobSpec {
	t.Helper()
	var specs []*service.JobSpec
	for i, method := range []string{
		"fcclr", "pfclr", "proposed", "layer-dvfs", "layer-hwrel", "layer-sswrel",
	} {
		specs = append(specs, testSpec(t, method, int64(100+i)))
	}
	return specs
}

// assertFrontsEqual requires got to be bit-identical to want in everything
// that travels on the wire: evaluation count, point order, objective
// vectors and QoS metrics.
func assertFrontsEqual(t *testing.T, label string, got, want *core.Front) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil front (got %v, want %v)", label, got, want)
	}
	if got.Evaluations != want.Evaluations {
		t.Fatalf("%s: evaluations %d, want %d", label, got.Evaluations, want.Evaluations)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("%s: %d points, want %d", label, len(got.Points), len(want.Points))
	}
	for i := range want.Points {
		g, w := got.Points[i], want.Points[i]
		if len(g.Objectives) != len(w.Objectives) {
			t.Fatalf("%s: point %d has %d objectives, want %d", label, i, len(g.Objectives), len(w.Objectives))
		}
		for k := range w.Objectives {
			if g.Objectives[k] != w.Objectives[k] {
				t.Fatalf("%s: point %d objective %d = %v, want %v",
					label, i, k, g.Objectives[k], w.Objectives[k])
			}
		}
		if g.QoS.MakespanUS != w.QoS.MakespanUS || g.QoS.ErrProb != w.QoS.ErrProb ||
			g.QoS.FunctionalRel != w.QoS.FunctionalRel || g.QoS.MTTFHours != w.QoS.MTTFHours ||
			g.QoS.EnergyUJ != w.QoS.EnergyUJ || g.QoS.PeakPowerW != w.QoS.PeakPowerW {
			t.Fatalf("%s: point %d QoS %+v, want %+v", label, i, g.QoS, w.QoS)
		}
	}
}

// localBaseline computes the ground-truth fronts of a spec list in-process.
func localBaseline(t *testing.T, specs []*service.JobSpec) []*core.Front {
	t.Helper()
	fronts := make([]*core.Front, len(specs))
	if err := dist.RunLocal(4, testCells(specs, fronts)); err != nil {
		t.Fatal(err)
	}
	return fronts
}

// runRemote sweeps specs through c and requires every cell to run
// remotely, with fronts bit-identical to want.
func runRemote(t *testing.T, c *dist.Coordinator, specs []*service.JobSpec, want []*core.Front) {
	t.Helper()
	got := make([]*core.Front, len(specs))
	if err := c.Run(context.Background(), 4, testCells(specs, got)); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		assertFrontsEqual(t, specs[i].Method, got[i], want[i])
	}
	if m := c.Metrics(); m.RemoteCells != int64(len(specs)) || m.LocalFallbacks != 0 {
		t.Fatalf("remote cells = %d, local fallbacks = %d; want %d, 0", m.RemoteCells, m.LocalFallbacks, len(specs))
	}
}

// TestDistributedMatchesLocal sweeps through a tenant-keyed gateway with
// two agents: every cell runs remotely and matches RunLocal bit for bit.
func TestDistributedMatchesLocal(t *testing.T) {
	specs := sweepSpecs(t)
	want := localBaseline(t, specs)

	f := newFleet(t, unlimited(), 10*time.Second)
	f.join(t, "w0", nil)
	f.join(t, "w1", nil)
	runRemote(t, newCoordinator(t, f.srv.URL, tenantKey), specs, want)
	if n := f.submits.Load(); n != int64(len(specs)) {
		t.Fatalf("gateway saw %d submits, want %d", n, len(specs))
	}
}

// TestBackPressureResubmits runs more cells than a max_active 1 tenant may
// hold: each 429 is waited out and resubmitted, not spent as an attempt.
func TestBackPressureResubmits(t *testing.T) {
	specs := sweepSpecs(t)
	want := localBaseline(t, specs)

	tenant := unlimited()
	tenant.MaxActive = 1
	f := newFleet(t, tenant, 10*time.Second)
	f.join(t, "w0", nil)
	f.join(t, "w1", nil)
	c := newCoordinator(t, f.srv.URL, tenantKey)
	runRemote(t, c, specs, want)
	if m := f.metrics(t); m.Rejects.Quota == 0 {
		t.Fatal("the tenant quota never refused a submission; back-pressure path not exercised")
	}
	if m := c.Metrics(); m.Retries != 0 {
		t.Fatalf("retries = %d, want 0: a 429 must not use up an attempt", m.Retries)
	}
}

// TestWorkerKilledMidSweepStaysDeterministic kills the only agent right
// after its first lease; the gateway redelivers the job once the lease
// expires, to an agent that joins after the kill.
func TestWorkerKilledMidSweepStaysDeterministic(t *testing.T) {
	specs := sweepSpecs(t)
	want := localBaseline(t, specs)

	f := newFleet(t, unlimited(), 300*time.Millisecond)
	leased := make(chan struct{})
	var once sync.Once
	victim := f.join(t, "victim", func(ctx context.Context, s *service.JobSpec, _ func(core.ProgressEvent)) (*core.Front, error) {
		once.Do(func() { close(leased) })
		<-ctx.Done() // hang until killed
		return nil, ctx.Err()
	})
	_, startSurvivor := f.agent(t, "survivor", nil)
	go func() {
		select {
		case <-leased:
			victim.Kill()
			startSurvivor()
		case <-time.After(30 * time.Second):
		}
	}()

	runRemote(t, newCoordinator(t, f.srv.URL, tenantKey), specs, want)
	select {
	case <-leased:
	default:
		t.Fatal("the victim never leased a job; kill path not exercised")
	}
	if m := f.metrics(t); m.Leases.Expired == 0 {
		t.Fatal("no lease expired; the killed agent's job was not redelivered")
	}
}

// TestWorkerResurrectionRejoinsSweep starts a sweep on one agent and has a
// new agent join mid-sweep: it takes cells from the same queue.
func TestWorkerResurrectionRejoinsSweep(t *testing.T) {
	specs := sweepSpecs(t)
	want := localBaseline(t, specs)

	f := newFleet(t, unlimited(), 10*time.Second)
	joinedRan := make(chan struct{})
	var joinedOnce sync.Once
	joinedExec := func(ctx context.Context, s *service.JobSpec, p func(core.ProgressEvent)) (*core.Front, error) {
		joinedOnce.Do(func() { close(joinedRan) })
		return service.Execute(ctx, s, p)
	}
	_, startJoined := f.agent(t, "joined", joinedExec)
	var firstOnce sync.Once
	f.join(t, "w0", func(ctx context.Context, s *service.JobSpec, p func(core.ProgressEvent)) (*core.Front, error) {
		// Hold the first lease until the newcomer has run a cell, so it
		// joins while the sweep still has queued work.
		firstOnce.Do(func() {
			startJoined()
			select {
			case <-joinedRan:
			case <-time.After(10 * time.Second):
			}
		})
		return service.Execute(ctx, s, p)
	})

	runRemote(t, newCoordinator(t, f.srv.URL, tenantKey), specs, want)
	select {
	case <-joinedRan:
	default:
		t.Fatal("the agent that joined mid-sweep received no work")
	}
}

func TestAllWorkersDownFallsBackToLocal(t *testing.T) {
	specs := sweepSpecs(t)[:2]
	want := localBaseline(t, specs)

	e := newDaemon(t, newService)
	e.kill()
	c := newCoordinator(t, e.srv.URL, "")

	got := make([]*core.Front, len(specs))
	if err := c.Run(context.Background(), 4, testCells(specs, got)); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		assertFrontsEqual(t, specs[i].Method, got[i], want[i])
	}
	m := c.Metrics()
	if m.LocalFallbacks != int64(len(specs)) {
		t.Fatalf("local fallbacks = %d, want %d", m.LocalFallbacks, len(specs))
	}
}

func TestNilSpecCellNeverLeavesTheProcess(t *testing.T) {
	f := newFleet(t, unlimited(), 10*time.Second)
	c := newCoordinator(t, f.srv.URL, tenantKey)

	ran := false
	err := c.Run(context.Background(), 1, []dist.Cell{{
		Local: func() (*core.Front, error) { ran = true; return &core.Front{Evaluations: 7}, nil },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("local-only cell did not run")
	}
	if n := f.submits.Load(); n != 0 {
		t.Fatalf("local-only cell reached the endpoint (%d submits)", n)
	}
	if m := c.Metrics(); m.LocalOnlyCells != 1 {
		t.Fatalf("local-only cells = %d, want 1", m.LocalOnlyCells)
	}
}

func TestPermanentFailureSkipsRetries(t *testing.T) {
	f := newFleet(t, unlimited(), 10*time.Second)
	c := newCoordinator(t, f.srv.URL, tenantKey)

	// An un-normalized spec the gateway rejects with 400: deterministic, so
	// no retry — straight to the local path, which reproduces the canonical
	// error.
	bad := &service.JobSpec{Method: "bogus"}
	_, err := c.RunOne(context.Background(), bad, func() (*core.Front, error) {
		local := *bad
		if err := local.Normalize(); err != nil {
			return nil, err
		}
		return service.Execute(context.Background(), &local, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err = %v, want the canonical unknown-method error", err)
	}
	if n := f.submits.Load(); n != 1 {
		t.Fatalf("submits = %d, want exactly 1 (no retries of a permanent failure)", n)
	}
	m := c.Metrics()
	if m.Retries != 0 || m.LocalFallbacks != 1 {
		t.Fatalf("retries = %d, fallbacks = %d; want 0 and 1", m.Retries, m.LocalFallbacks)
	}
}

// TestUnknownKeyFallsBackWithoutRetries: a 401 is a configuration error
// that every attempt would repeat, so the cell runs locally at once.
func TestUnknownKeyFallsBackWithoutRetries(t *testing.T) {
	spec := testSpec(t, "fcclr", 77)
	want := localBaseline(t, []*service.JobSpec{spec})[0]
	f := newFleet(t, unlimited(), 10*time.Second)
	c := newCoordinator(t, f.srv.URL, "wrong-key")

	got, err := c.RunOne(context.Background(), spec, func() (*core.Front, error) {
		return service.Execute(context.Background(), spec, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFrontsEqual(t, "unauthorized", got, want)
	if m := c.Metrics(); f.submits.Load() != 1 || m.Retries != 0 || m.LocalFallbacks != 1 {
		t.Fatalf("submits = %d, metrics %+v; want 1 submit, 0 retries, 1 fallback", f.submits.Load(), m)
	}
}

func TestTransientFailureRetriesThenSucceeds(t *testing.T) {
	spec := testSpec(t, "fcclr", 321)
	want := localBaseline(t, []*service.JobSpec{spec})[0]

	// Down at first: submits bounce with 502 until the daemon comes back.
	e := newDaemon(t, newService)
	e.kill()
	c := newCoordinator(t, e.srv.URL, "")

	done := make(chan struct{})
	go func() {
		// Let the first attempt fail, then bring the daemon up; backoff
		// retries should land on the revived instance.
		for e.bounced.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		e.resurrect()
		close(done)
	}()
	got, err := c.RunOne(context.Background(), spec, func() (*core.Front, error) {
		return service.Execute(context.Background(), spec, nil)
	})
	<-done
	if err != nil {
		t.Fatal(err)
	}
	assertFrontsEqual(t, "retried", got, want)
	// Whether the win came from a retry or the local fallback depends on
	// timing; what must hold is that at least one extra attempt happened
	// or the fallback fired — and the result is canonical either way.
	m := c.Metrics()
	if m.Retries == 0 && m.LocalFallbacks == 0 {
		t.Fatalf("expected retries or a local fallback, got %+v", m)
	}
}

func TestRunOrderIndependence(t *testing.T) {
	// The same cells at wildly different concurrency must store identical
	// fronts — completion order must never leak into results.
	specs := sweepSpecs(t)[:4]
	want := localBaseline(t, specs)
	seq := make([]*core.Front, len(specs))
	if err := dist.RunLocal(1, testCells(specs, seq)); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		assertFrontsEqual(t, specs[i].Method, seq[i], want[i])
	}
}

func TestNormalizeURL(t *testing.T) {
	cases := map[string]string{
		"localhost:8080":          "http://localhost:8080",
		" http://a:1/ ":           "http://a:1",
		"https://b.example":       "https://b.example",
		"":                        "",
		"  ":                      "",
		"http://c.example/base//": "http://c.example/base",
	}
	for in, want := range cases {
		if got := dist.NormalizeURL(in); got != want {
			t.Errorf("NormalizeURL(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSeveralEndpointsRefused(t *testing.T) {
	_, err := dist.New("localhost:8081,localhost:8082", "")
	if err == nil || !strings.Contains(err.Error(), "clrearlygw") {
		t.Fatalf("err = %v, want a refusal that names clrearlygw", err)
	}
}

func TestCoordinatorWithoutWorkersRunsLocally(t *testing.T) {
	spec := testSpec(t, "fcclr", 11)
	want := localBaseline(t, []*service.JobSpec{spec})[0]
	c, err := dist.New("", "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.RunOne(context.Background(), spec, func() (*core.Front, error) {
		return service.Execute(context.Background(), spec, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFrontsEqual(t, "no-workers", got, want)
}
