package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/relmodel"
)

// The chain-solve counters are process-global, so none of these tests run
// under t.Parallel: another test's solves would land in their deltas.

func pairSolvesSince(before relmodel.PairSolveStats) relmodel.PairSolveStats {
	now := relmodel.PairSolveTotals()
	return relmodel.PairSolveStats{Paired: now.Paired - before.Paired, Solo: now.Solo - before.Solo}
}

// TestSubmissionRunsTDSEOnce pins that a fresh proposed job pays for one
// tDSE build: the admission build is the one the worker runs on. Its chain
// solves equal one standalone Build plus the GA run on that build, and a
// cache-hit resubmission solves nothing.
func TestSubmissionRunsTDSEOnce(t *testing.T) {
	spec := JobSpec{App: "sobel", Method: "proposed", Pop: 12, Gens: 6, Seed: 5}
	direct := spec
	if err := direct.Normalize(); err != nil {
		t.Fatal(err)
	}
	before := relmodel.PairSolveTotals()
	inst, flib, err := Build(&direct)
	if err != nil {
		t.Fatal(err)
	}
	build := pairSolvesSince(before)
	if build.Paired+build.Solo == 0 {
		t.Fatal("a proposed build solved no chains")
	}
	before = relmodel.PairSolveTotals()
	front, err := ExecuteOn(context.Background(), inst, flib, &direct, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := pairSolvesSince(before)
	want := marshalWireFront(t, FrontToWire(front))

	_, ts := newTestServer(t, Config{Workers: 1})
	before = relmodel.PairSolveTotals()
	jw, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, jw.Error)
	}
	done := waitFor(t, ts, jw.ID, 30*time.Second, terminal)
	if done.State != StateDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	got := pairSolvesSince(before)
	if wantSolves := (relmodel.PairSolveStats{Paired: build.Paired + run.Paired, Solo: build.Solo + run.Solo}); got != wantSolves {
		t.Fatalf("served job solved %+v chains, want one build %+v plus its run %+v", got, build, run)
	}
	if string(marshalWireFront(t, done.Front)) != string(want) {
		t.Fatal("served front differs from the standalone run")
	}

	before = relmodel.PairSolveTotals()
	hit, code := postJob(t, ts, spec)
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("resubmission not a cache hit: %d %+v", code, hit)
	}
	if got := pairSolvesSince(before); got != (relmodel.PairSolveStats{}) {
		t.Fatalf("cache-hit resubmission solved %+v chains, want none", got)
	}
	if string(marshalWireFront(t, hit.Front)) != string(want) {
		t.Fatal("cached front differs from the computed one")
	}
}

// TestRecoveredJobBuildsInWorker checks the one path without an admission
// build: a job journaled by an earlier daemon and recovered from the store
// still builds and completes, with the front service.Execute produces.
func TestRecoveredJobBuildsInWorker(t *testing.T) {
	spec := JobSpec{App: "sobel", Method: "proposed", Pop: 12, Gens: 6, Seed: 8}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	if err := st.AcceptJob("j000042", spec.Hash(), raw, time.Now()); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Workers: 1, Store: st})
	done := waitFor(t, ts, "j000042", 30*time.Second, terminal)
	if done.State != StateDone {
		t.Fatalf("recovered job ended %s: %s", done.State, done.Error)
	}
	if got, want := marshalWireFront(t, done.Front), referenceFront(t, spec); string(got) != string(want) {
		t.Fatal("recovered job's front differs from service.Execute")
	}
}

// TestInflightIndex checks the in-flight dedup index: duplicates of a
// queued or a running spec attach to it, and once the job ends — done,
// cancelled while queued or running, failed — a resubmission queues fresh
// work. After shutdown nothing is left indexed.
func TestInflightIndex(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	s, ts := newTestServer(t, Config{Workers: 1, Store: st})
	submit := func(spec JobSpec, want int) *JobWire {
		t.Helper()
		jw, code := postJob(t, ts, spec)
		if code != want {
			t.Fatalf("submit seed %d: status %d (%s), want %d", spec.Seed, code, jw.Error, want)
		}
		return jw
	}

	running := submit(longSpec(21), http.StatusAccepted)
	waitFor(t, ts, running.ID, 10*time.Second, func(jw *JobWire) bool { return jw.State == StateRunning })
	queued := submit(longSpec(22), http.StatusAccepted)
	if dup := submit(longSpec(21), http.StatusAccepted); dup.ID != running.ID {
		t.Fatalf("duplicate of the running job got %s, want %s", dup.ID, running.ID)
	}
	if dup := submit(longSpec(22), http.StatusAccepted); dup.ID != queued.ID {
		t.Fatalf("duplicate of the queued job got %s, want %s", dup.ID, queued.ID)
	}

	cancelJob(t, ts, queued.ID)
	requeued := submit(longSpec(22), http.StatusAccepted)
	if requeued.ID == queued.ID || requeued.State != StateQueued {
		t.Fatalf("resubmission after a queued cancel attached: %+v", requeued)
	}
	cancelJob(t, ts, requeued.ID)

	cancelJob(t, ts, running.ID)
	waitFor(t, ts, running.ID, 10*time.Second, terminal)
	rerun := submit(longSpec(21), http.StatusAccepted)
	if rerun.ID == running.ID {
		t.Fatal("resubmission after a running cancel attached to the cancelled job")
	}
	cancelJob(t, ts, rerun.ID)
	waitFor(t, ts, rerun.ID, 10*time.Second, terminal)

	// A checkpoint past the run's budget fails the job on resume. The
	// failure clears the checkpoint, so the resubmission runs fresh.
	short := JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 23}
	norm := short
	if err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCheckpoint(norm.Hash(), []byte(`{"stages":{"fcclr":{"generation":1000000,"population":[],"archive":[]}}}`)); err != nil {
		t.Fatal(err)
	}
	failed := submit(short, http.StatusAccepted)
	if end := waitFor(t, ts, failed.ID, 10*time.Second, terminal); end.State != StateFailed {
		t.Fatalf("job with a poisoned checkpoint ended %s, want failed", end.State)
	}
	retry := submit(short, http.StatusAccepted)
	if retry.ID == failed.ID {
		t.Fatal("resubmission after a failure attached to the failed job")
	}
	if end := waitFor(t, ts, retry.ID, 30*time.Second, terminal); end.State != StateDone {
		t.Fatalf("fresh retry ended %s: %s", end.State, end.Error)
	}

	// Queue one more behind a running job, then shut down: the running job
	// is aborted, the queued one cancelled, and the index ends empty.
	last := submit(longSpec(24), http.StatusAccepted)
	waitFor(t, ts, last.ID, 10*time.Second, func(jw *JobWire) bool { return jw.State == StateRunning })
	submit(longSpec(25), http.StatusAccepted)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_ = s.Shutdown(ctx)
	s.jobs.Lock()
	left := len(s.jobs.byHash)
	s.jobs.Unlock()
	if left != 0 {
		t.Fatalf("%d jobs still indexed as in flight after shutdown", left)
	}
}

// TestConcurrentDuplicatesShareOneJob races identical fresh submissions:
// each may build before any is enqueued, and the re-check under the lock
// must still leave exactly one job for all of them.
func TestConcurrentDuplicatesShareOneJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	body, err := json.Marshal(longSpec(26))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 8)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var jw JobWire
			if err := json.NewDecoder(resp.Body).Decode(&jw); err != nil || resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: status %d, decode error %v", i, resp.StatusCode, err)
			}
			ids[i] = jw.ID
		}()
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("identical concurrent submissions got jobs %v, want one", ids)
		}
	}
	s.jobs.Lock()
	jobs := len(s.jobs.byID)
	s.jobs.Unlock()
	if jobs != 1 {
		t.Fatalf("%d jobs created, want 1", jobs)
	}
}
