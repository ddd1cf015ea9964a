package dist_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/service"
	"repro/internal/store"
)

// TestDurableWorkerRestartResumesSameJob is the coordinator half of the
// crash-recovery story: a durable clrearlyd killed mid-run and resurrected
// behind the same URL re-enqueues and resumes the job under the same ID,
// and the coordinator rides the outage out by retrying its long-poll in
// place — the cell is never resubmitted, and the resumed front is
// byte-identical to an uninterrupted local run.
func TestDurableWorkerRestartResumesSameJob(t *testing.T) {
	// The budget must be large enough that the kill lands mid-evolution:
	// the GA clears hundreds of sobel generations per second, and the
	// kill only fires after the first durable checkpoint is observed.
	spec := testSpec(t, "proposed", 21)
	spec.Pop, spec.Gens = 16, 1200
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	want := localBaseline(t, []*service.JobSpec{spec})[0]

	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	w := newDaemon(t, func() *service.Server {
		return service.New(service.Config{Workers: 2, QueueCap: 64, Store: st, CheckpointEvery: 2})
	})
	c := newCoordinator(t, w.srv.URL, "")

	// Kill the daemon once the run has a durable checkpoint to resume
	// from, keep it dark for a few wait slices (the coordinator's retry
	// loop must straddle the gap), then resurrect it on the same store.
	runDone := make(chan struct{})
	killDone := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for st.Stats().Checkpoints == 0 {
			select {
			case <-runDone:
				killDone <- context.Canceled // sentinel: run finished before the kill
				return
			default:
			}
			if time.Now().After(deadline) {
				killDone <- context.DeadlineExceeded
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		w.kill()
		time.Sleep(4 * dist.FastWaitSlice)
		w.resurrect()
		killDone <- nil
	}()

	got := make([]*core.Front, 1)
	err = c.Run(context.Background(), 1, testCells([]*service.JobSpec{spec}, got))
	close(runDone)
	if kerr := <-killDone; kerr != nil {
		t.Fatalf("kill never landed mid-run: %v", kerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	assertFrontsEqual(t, "resumed", got[0], want)

	// One submit: the coordinator waited the restart out on the original
	// job instead of re-dispatching the cell.
	if n := w.submits.Load(); n != 1 {
		t.Fatalf("worker saw %d submits, want 1 (cell was re-dispatched)", n)
	}
	m := c.Metrics()
	if m.RemoteCells != 1 || m.LocalFallbacks != 0 {
		t.Fatalf("remote cells = %d, local fallbacks = %d; want 1, 0", m.RemoteCells, m.LocalFallbacks)
	}
	// The resumed run finished, so its checkpoint is gone.
	if n := st.Stats().Checkpoints; n != 0 {
		t.Fatalf("store still holds %d checkpoints after the resumed run finished", n)
	}
}
