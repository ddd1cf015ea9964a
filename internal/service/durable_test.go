package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// openTestStore opens a store in dir with the fast fsync policy — the
// durability semantics under test (journaling, recovery, checkpoint
// resume) are identical across policies.
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// referenceFront runs the spec uninterrupted in-process and returns the
// canonical wire-form bytes of its front.
func referenceFront(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	front, err := Execute(context.Background(), &spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(FrontToWire(front))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func marshalWireFront(t *testing.T, fw *FrontWire) []byte {
	t.Helper()
	b, err := json.Marshal(fw)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCrashResumeByteIdenticalFront is the acceptance test of the durable
// service: a run aborted mid-evolution (forced shutdown, the in-process
// equivalent of kill -9 after the last checkpoint) is re-enqueued by the
// next incarnation, resumes from its checkpoint, and produces a front
// byte-identical to an uninterrupted run of the same spec.
func TestCrashResumeByteIdenticalFront(t *testing.T) {
	// The budget must be large enough that the abort lands mid-run: the
	// GA clears hundreds of sobel generations per second, and the gap
	// between observing generation ≥ 4 and the abort taking effect spans
	// many generations.
	spec := JobSpec{App: "sobel", Method: "proposed", Pop: 16, Gens: 1200, Seed: 42}
	want := referenceFront(t, spec)

	dir := t.TempDir()
	st := openTestStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st, CheckpointEvery: 2})
	ts1 := httptest.NewServer(s1)

	jw, code := postJob(t, ts1, spec)
	if code != 202 {
		t.Fatalf("submit: %d %s", code, jw.Error)
	}
	// Let the run get past a few checkpoints, then pull the plug: an
	// already-expired shutdown context forces the abort path immediately.
	waitFor(t, ts1, jw.ID, 30*time.Second, func(w *JobWire) bool {
		return w.Progress != nil && w.Progress.Generation >= 4
	})
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s1.Shutdown(expired)
	ts1.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The aborted job must still be pending with a saved checkpoint —
	// aborts are not terminal states.
	st2 := openTestStore(t, dir)
	if _, ok := st2.Checkpoint(jw.SpecHash); !ok {
		t.Fatal("aborted run left no checkpoint")
	}
	pending := 0
	for _, jr := range st2.Jobs() {
		if jr.Pending() {
			pending++
		}
	}
	if pending != 1 {
		t.Fatalf("store has %d pending jobs after abort, want 1", pending)
	}

	s2 := New(Config{Workers: 1, Store: st2, CheckpointEvery: 2})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_ = s2.Shutdown(ctx)
		ts2.Close()
		st2.Close()
	})

	// Same job ID: the restart re-enqueued the accepted job, not a copy.
	final := waitFor(t, ts2, jw.ID, 60*time.Second, terminal)
	if final.State != StateDone {
		t.Fatalf("resumed job ended %s (%s)", final.State, final.Error)
	}
	if final.Cached {
		t.Fatal("resumed job was served from cache, not resumed")
	}
	if got := marshalWireFront(t, final.Front); string(got) != string(want) {
		t.Fatal("resumed front differs from uninterrupted run")
	}
	if _, ok := st2.Checkpoint(jw.SpecHash); ok {
		t.Fatal("finished run left its checkpoint behind")
	}
}

// TestResultCacheSurvivesRestart checks done fronts and terminal job
// records are re-served by the next incarnation with zero client-visible
// loss.
func TestResultCacheSurvivesRestart(t *testing.T) {
	spec := JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 4, Seed: 7}
	dir := t.TempDir()
	st := openTestStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st})
	ts1 := httptest.NewServer(s1)

	jw, code := postJob(t, ts1, spec)
	if code != 202 {
		t.Fatalf("submit: %d %s", code, jw.Error)
	}
	done := waitFor(t, ts1, jw.ID, 30*time.Second, terminal)
	if done.State != StateDone {
		t.Fatalf("job ended %s (%s)", done.State, done.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = s1.Shutdown(ctx)
	ts1.Close()
	st.Close()

	st2 := openTestStore(t, dir)
	s2 := New(Config{Workers: 1, Store: st2})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer scancel()
		_ = s2.Shutdown(sctx)
		ts2.Close()
		st2.Close()
	})

	// The finished job is still addressable, front included.
	got := getJob(t, ts2, jw.ID)
	if got.State != StateDone || got.Front == nil {
		t.Fatalf("recovered job = %s, front %v", got.State, got.Front != nil)
	}
	if string(marshalWireFront(t, got.Front)) != string(marshalWireFront(t, done.Front)) {
		t.Fatal("recovered front differs from the one served before restart")
	}

	// An identical resubmission hits the rehydrated cache without running.
	dup, code := postJob(t, ts2, spec)
	if code != 200 {
		t.Fatalf("resubmit after restart: %d %s", code, dup.Error)
	}
	if !dup.Cached || dup.State != StateDone {
		t.Fatalf("resubmission not served from persistent cache: %+v", dup)
	}
	if dup.ID == jw.ID {
		t.Fatal("resubmission reused the recovered job's ID")
	}
	if string(marshalWireFront(t, dup.Front)) != string(marshalWireFront(t, done.Front)) {
		t.Fatal("cached front differs across restart")
	}
}

// TestUserCancelIsDurable checks a client DELETE (unlike a shutdown abort)
// is journaled as terminal: the restarted daemon neither re-runs the job
// nor keeps its checkpoint.
func TestUserCancelIsDurable(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st, CheckpointEvery: 2})
	ts1 := httptest.NewServer(s1)

	spec := JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 50000, Seed: 3}
	jw, code := postJob(t, ts1, spec)
	if code != 202 {
		t.Fatalf("submit: %d %s", code, jw.Error)
	}
	waitFor(t, ts1, jw.ID, 30*time.Second, func(w *JobWire) bool {
		return w.Progress != nil && w.Progress.Generation >= 4
	})
	cancelJob(t, ts1, jw.ID)
	final := waitFor(t, ts1, jw.ID, 10*time.Second, terminal)
	if final.State != StateCancelled {
		t.Fatalf("job ended %s", final.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = s1.Shutdown(ctx)
	ts1.Close()
	st.Close()

	st2 := openTestStore(t, dir)
	defer st2.Close()
	for _, jr := range st2.Jobs() {
		if jr.ID == jw.ID && jr.Pending() {
			t.Fatal("cancelled job is still pending in the store")
		}
	}
	if _, ok := st2.Checkpoint(jw.SpecHash); ok {
		t.Fatal("cancelled job kept its checkpoint")
	}
	s2 := New(Config{Workers: 1, Store: st2})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer scancel()
		_ = s2.Shutdown(sctx)
		ts2.Close()
	})
	if got := getJob(t, ts2, jw.ID); got.State != StateCancelled {
		t.Fatalf("recovered cancelled job reports %s", got.State)
	}
}

// TestInflightDedupe checks a second submission of an identical spec
// attaches to the first job instead of queueing duplicate work.
func TestInflightDedupe(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 50000, Seed: 9}
	first, code := postJob(t, ts, spec)
	if code != 202 {
		t.Fatalf("submit: %d %s", code, first.Error)
	}
	second, code := postJob(t, ts, spec)
	if code != 202 {
		t.Fatalf("duplicate submit: %d %s", code, second.Error)
	}
	if second.ID != first.ID {
		t.Fatalf("duplicate got its own job %s, want %s", second.ID, first.ID)
	}
	// A different seed is different work — no dedupe.
	other, code := postJob(t, ts, JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 50000, Seed: 10})
	if code != 202 || other.ID == first.ID {
		t.Fatalf("distinct spec deduped: %d %+v", code, other)
	}
	m := getMetrics(t, ts)
	if m.Jobs.Deduped != 1 {
		t.Fatalf("deduped counter = %d, want 1", m.Jobs.Deduped)
	}
	cancelJob(t, ts, first.ID)
	cancelJob(t, ts, other.ID)

	// Once the job is terminal it no longer captures duplicates.
	waitFor(t, ts, first.ID, 10*time.Second, terminal)
	third, code := postJob(t, ts, spec)
	if code != 202 {
		t.Fatalf("post-terminal submit: %d %s", code, third.Error)
	}
	if third.ID == first.ID {
		t.Fatal("terminal job captured a new submission")
	}
	cancelJob(t, ts, third.ID)
}

// TestMetricsIncludeStoreGauges checks /metrics surfaces the store gauges
// when the service runs durably.
func TestMetricsIncludeStoreGauges(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	s := New(Config{Workers: 1, Store: st})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
		st.Close()
	})
	spec := JobSpec{App: "sobel", Method: "fcclr", Pop: 16, Gens: 3, Seed: 8}
	jw, code := postJob(t, ts, spec)
	if code != 202 {
		t.Fatalf("submit: %d", code)
	}
	waitFor(t, ts, jw.ID, 30*time.Second, terminal)
	m := getMetrics(t, ts)
	if m.Store == nil {
		t.Fatal("metrics carry no store gauges")
	}
	if m.Store.Appends == 0 || m.Store.Jobs != 1 {
		t.Fatalf("store gauges = %+v", m.Store)
	}
}

// legacySpec is the job of testdata/legacy_proposed_checkpoint.json: a
// proposed sobel run interrupted at fcCLR generation 5 (its pfCLR front
// complete) and checkpointed by a build that still carried surrogate
// screening and its checkpoint field. legacyHash is that build's hash of it.
func legacySpec() JobSpec {
	return JobSpec{App: "sobel", Method: "proposed", Pop: 16, Gens: 12, Seed: 5}
}

const legacyHash = "c91137b34e9a0743"

func legacyCheckpoint(t *testing.T) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "legacy_proposed_checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestLegacyCheckpointResumesByteIdentical checks a checkpoint written by
// an older build still decodes and resumes mid-fcCLR to the front of an
// uninterrupted run, byte for byte.
func TestLegacyCheckpointResumesByteIdentical(t *testing.T) {
	spec := legacySpec()
	want := referenceFront(t, spec)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if h := spec.Hash(); h != legacyHash {
		t.Fatalf("legacy spec hashes to %s, want %s", h, legacyHash)
	}
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	if err := st.SaveCheckpoint(legacyHash, legacyCheckpoint(t)); err != nil {
		t.Fatal(err)
	}
	jc := newJobCheckpointer(st, legacyHash)
	if jc.ResumeFront("pfclr") == nil || jc.ResumeStage("fcclr") == nil {
		t.Fatal("legacy checkpoint did not decode to a pfCLR front and an fcCLR snapshot")
	}
	inst, flib, err := Build(&spec)
	if err != nil {
		t.Fatal(err)
	}
	pfEvents, firstFC := 0, -1
	front, err := ExecuteOnHooks(context.Background(), inst, flib, &spec, RunHooks{
		Checkpoint:      jc,
		CheckpointEvery: 2,
		Progress: func(ev core.ProgressEvent) {
			switch {
			case ev.Stage == "pfclr":
				pfEvents++
			case ev.Stage == "fcclr" && firstFC < 0:
				firstFC = ev.Generation
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pfEvents != 0 || firstFC != 5 {
		t.Fatalf("run did not resume: %d pfCLR events, first fcCLR generation %d", pfEvents, firstFC)
	}
	if got := marshalWireFront(t, FrontToWire(front)); string(got) != string(want) {
		t.Fatal("front resumed from the legacy checkpoint differs from an uninterrupted run")
	}
}

// TestRecoverFailsRemovedSpecFields: a pending job journaled with the
// removed surrogate fields, whose checkpoint holds a proxy-scored member,
// comes back failed with an error naming the field and no front, and its
// checkpoint is dropped; a pending legacy job beside it resumes to done.
func TestRecoverFailsRemovedSpecFields(t *testing.T) {
	legacy := legacySpec()
	want := referenceFront(t, legacy)
	if err := legacy.Normalize(); err != nil {
		t.Fatal(err)
	}
	legacyData, err := json.Marshal(&legacy)
	if err != nil {
		t.Fatal(err)
	}
	// The surrogate job as the older build journaled it: its normalized
	// spec, hashed the way JobSpec.Hash did.
	surData := append(bytes.TrimSuffix(legacyData, []byte("}")), `,"surrogate":true,"surrogate_fraction":0.5}`...)
	sum := sha256.Sum256(surData)
	surHash := hex.EncodeToString(sum[:8])
	blob := legacyCheckpoint(t)
	approxBlob := bytes.Replace(blob, []byte(`"violation_bits":0}`), []byte(`"violation_bits":0,"approx":true}`), 1)

	dir := t.TempDir()
	st := openTestStore(t, dir)
	now := time.Now()
	for _, r := range []struct {
		id, hash   string
		spec, ckpt []byte
	}{
		{"j000001", surHash, surData, approxBlob},
		{"j000002", legacyHash, legacyData, blob},
	} {
		if err := st.AcceptJob(r.id, r.hash, r.spec, now); err != nil {
			t.Fatal(err)
		}
		if err := st.SaveCheckpoint(r.hash, r.ckpt); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	s := New(Config{Workers: 1, Store: st2})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
		st2.Close()
	})
	sur := getJob(t, ts, "j000001")
	if sur.State != StateFailed || !strings.Contains(sur.Error, "surrogate") || sur.Front != nil {
		t.Fatalf("surrogate job recovered as %s (%q), front %v; want failed naming surrogate", sur.State, sur.Error, sur.Front != nil)
	}
	if _, ok := st2.Checkpoint(surHash); ok {
		t.Fatal("surrogate job kept its checkpoint")
	}
	for _, jr := range st2.Jobs() {
		if jr.ID == "j000001" && jr.Pending() {
			t.Fatal("surrogate job's failure was not journaled")
		}
	}
	done := waitFor(t, ts, "j000002", 60*time.Second, terminal)
	if done.State != StateDone {
		t.Fatalf("legacy job ended %s (%s)", done.State, done.Error)
	}
	if got := marshalWireFront(t, done.Front); string(got) != string(want) {
		t.Fatal("legacy job resumed to a different front")
	}
}

// finishGate is a store FinishHook that holds the finish append of the
// target job (of every job, with no target) until released, then fails it
// with err (nil lets it through).
type finishGate struct {
	target  atomic.Pointer[string]
	entered chan string
	release chan struct{}
	once    sync.Once
	err     error
}

func newFinishGate(err error) *finishGate {
	return &finishGate{entered: make(chan string, 1), release: make(chan struct{}), err: err}
}

// open lets held and future appends through.
func (g *finishGate) open() { g.once.Do(func() { close(g.release) }) }

func (g *finishGate) hook(id string) error {
	if t := g.target.Load(); t != nil && *t != id {
		return nil
	}
	g.entered <- id
	<-g.release
	return g.err
}

// waitAsync long-polls a job's /wait once, delivering the decoded status
// (or nil on a transport or decode error) on the returned channel.
func waitAsync(url, id string) <-chan *JobWire {
	out := make(chan *JobWire, 1)
	go func() {
		resp, err := http.Get(url + "/v1/jobs/" + id + "/wait?timeout=60s")
		if err != nil {
			out <- nil
			return
		}
		defer resp.Body.Close()
		var jw JobWire
		if json.NewDecoder(resp.Body).Decode(&jw) != nil {
			out <- nil
			return
		}
		out <- &jw
	}()
	return out
}

// TestFinishJournaledBeforePublish holds the store's finish append and
// requires /wait to stay blocked until the record is written: a client
// never sees an outcome that a crash could lose, and by the time it does,
// the run checkpoint is gone too.
func TestFinishJournaledBeforePublish(t *testing.T) {
	gate := newFinishGate(nil)
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever, FinishHook: gate.hook})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts := newTestServer(t, Config{Workers: 1, Store: st, CheckpointEvery: 1})
	t.Cleanup(gate.open) // runs before the server's teardown, even on failure

	// The one worker is busy with a blocker until the job under test is
	// admitted and targeted, so the job cannot finish before that.
	blocker, code := postJob(t, ts, longSpec(3))
	if code != 202 {
		t.Fatalf("submit blocker: %d %s", code, blocker.Error)
	}
	jw, code := postJob(t, ts, JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 4, Seed: 3})
	if code != 202 {
		t.Fatalf("submit: %d %s", code, jw.Error)
	}
	gate.target.Store(&jw.ID)
	cancelJob(t, ts, blocker.ID)
	waited := waitAsync(ts.URL, jw.ID)
	select {
	case id := <-gate.entered:
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
	gate.open()
	w := <-waited
	if w == nil || w.State != StateDone {
		t.Fatalf("/wait after the append = %+v, want done", w)
	}
	for _, rec := range st.Jobs() {
		if rec.ID == jw.ID && rec.State != StateDone {
			t.Fatalf("store holds %s as %q after /wait returned", rec.ID, rec.State)
		}
	}
	if n := st.Stats().Checkpoints; n != 0 {
		t.Fatalf("store holds %d checkpoints after /wait returned", n)
	}
}

// TestFinishJournalFailureStillPublishes pins the rule for a failed finish
// write: the outcome is still published, the failure is counted in the
// /metrics store block, and the record stays pending so a restart runs the
// job again.
func TestFinishJournalFailureStillPublishes(t *testing.T) {
	gate := newFinishGate(errors.New("disk full"))
	gate.open()
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever, FinishHook: gate.hook})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts := newTestServer(t, Config{Workers: 1, Store: st})

	jw, code := postJob(t, ts, JobSpec{App: "sobel", Method: "fcclr", Pop: 8, Gens: 2, Seed: 4})
	if code != 202 {
		t.Fatalf("submit: %d %s", code, jw.Error)
	}
	w := <-waitAsync(ts.URL, jw.ID)
	if w == nil || w.State != StateDone || w.Front == nil {
		t.Fatalf("/wait = %+v, want done with a front", w)
	}
	if m := getMetrics(t, ts); m.Store == nil || m.Store.FinishErrors != 1 {
		t.Fatalf("metrics store block = %+v, want finish_errors 1", m.Store)
	}
	for _, rec := range st.Jobs() {
		if rec.ID == jw.ID && !rec.Pending() {
			t.Fatalf("record %s is %q, want pending after the failed finish write", rec.ID, rec.State)
		}
	}
}
