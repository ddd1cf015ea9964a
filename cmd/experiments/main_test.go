package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/service"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("10, 20,30")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("parseSizes = %v", got)
	}
	if _, err := parseSizes("10,x"); err == nil {
		t.Error("non-numeric size accepted")
	}
	if _, err := parseSizes("0"); err == nil {
		t.Error("zero size accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "fig6a"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== fig6a") || !strings.Contains(out, "Fig. 6(a)") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if strings.Contains(out, "TABLE IV") {
		t.Fatal("unselected experiment ran")
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "fig6b,table4", "-seed", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig. 6(b)") || !strings.Contains(out, "TABLE IV") {
		t.Fatalf("missing selected experiments:\n%s", out)
	}
}

func TestRunTableWithCustomSizes(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "table6", "-sizes", "10", "-pop", "16", "-gens", "6"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TABLE VI") {
		t.Fatal("missing TABLE VI output")
	}
}

func TestRunWithJobs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "fig9", "-jobs", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 9") {
		t.Fatal("missing Fig. 9 output")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig99"}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadSizes(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-sizes", "abc"}, &buf); err == nil {
		t.Fatal("bad sizes accepted")
	}
}

// newAgent returns a gateway agent and a start func that runs it until
// the test ends; a nil exec runs specs with service.Execute. The cleanup is
// registered here, so start may run on any goroutine.
func newAgent(t *testing.T, gwURL, name string, exec gateway.ExecFunc) (*gateway.Agent, func()) {
	t.Helper()
	a, err := gateway.NewAgent(gateway.AgentConfig{
		Gateway: gwURL, Token: "fleet-token", Name: name,
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

// TestDistributedRunMatchesLocalGolden pins the federation guarantee end
// to end: the full CLI output of a -quick sweep through a tenant-keyed
// gateway — whose first agent is killed right after its first lease, and
// whose other agent joins mid-sweep — is byte-identical to the purely
// local -jobs 4 run of the same arguments.
func TestDistributedRunMatchesLocalGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed golden test runs the sweep twice")
	}
	args := []string{"-quick", "-timing=false", "-seed", "7",
		"-run", "fig7,table5,fig8", "-sizes", "10,12", "-jobs", "4"}

	var local bytes.Buffer
	if err := run(args, &local); err != nil {
		t.Fatal(err)
	}

	gw, err := gateway.New(gateway.Config{
		Tenants: []gateway.TenantConfig{{Name: "sweep", Key: "sweep-key",
			RatePerSec: 1000, Burst: 1000, MaxActive: -1}},
		WorkerToken: "fleet-token",
		LeaseTTL:    500 * time.Millisecond,
		ProbeEvery:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(func() { ts.Close(); gw.Close() })

	leased := make(chan struct{})
	var once sync.Once
	victim, startVictim := newAgent(t, ts.URL, "victim", func(ctx context.Context, s *service.JobSpec, _ func(core.ProgressEvent)) (*core.Front, error) {
		once.Do(func() { close(leased) })
		<-ctx.Done() // hang until killed; the lease expires and is redelivered
		return nil, ctx.Err()
	})
	_, startJoined := newAgent(t, ts.URL, "joined", nil)
	startVictim()
	go func() {
		select {
		case <-leased:
			victim.Kill()
			startJoined()
		case <-time.After(60 * time.Second):
		}
	}()

	var dist bytes.Buffer
	if err := run(append(args, "-workers", ts.URL, "-api-key", "sweep-key"), &dist); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), dist.Bytes()) {
		t.Fatalf("distributed output differs from local run:\n--- local ---\n%s\n--- distributed ---\n%s",
			local.Bytes(), dist.Bytes())
	}
	select {
	case <-leased:
	default:
		t.Fatal("worker kill path not exercised: the victim never leased a job")
	}
}

func TestRunRejectsSeveralWorkers(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-quick", "-run", "fig7", "-workers", "localhost:1,localhost:2"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "clrearlygw") {
		t.Fatalf("err = %v, want a refusal that names clrearlygw", err)
	}
}

func TestRunJSONExport(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/results.json"
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "table4", "-json", path}, &buf); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if _, ok := decoded["table4"]; !ok {
		t.Fatal("JSON missing table4 result")
	}
}
