package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/store"
)

// MaxTerminalJobs bounds the finished jobs a JobTable keeps in memory; the
// oldest-finished go first, queued and running jobs never. It equals the
// store's default retention, so the live view matches what a restart
// recovers.
const MaxTerminalJobs = 1024

// Job is the lifecycle record of one submitted run, shared by clrearlyd and
// the gateway, which embed it in their own job types (adding the admission
// build, or tenancy and lease state). The embedded Mutex guards the fields
// below it and the embedding type's mutable fields alike.
type Job struct {
	ID   string
	Spec JobSpec
	Hash string

	sync.Mutex
	State     string
	Cached    bool
	ErrMsg    string
	Front     *FrontWire
	Progress  *ProgressWire
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	subs      map[chan ProgressWire]struct{}
	done      chan struct{} // closed by the terminal transition
}

func newJob(id string, spec JobSpec, hash string, submitted time.Time) *Job {
	return &Job{
		ID:        id,
		Spec:      spec,
		Hash:      hash,
		subs:      make(map[chan ProgressWire]struct{}),
		done:      make(chan struct{}),
		Submitted: submitted,
	}
}

func (j *Job) job() *Job { return j }

// Wire snapshots the job's status; includeFront attaches the result of a
// finished job.
func (j *Job) Wire(includeFront bool) *JobWire {
	j.Lock()
	defer j.Unlock()
	w := &JobWire{
		ID:          j.ID,
		State:       j.State,
		Method:      j.Spec.Method,
		SpecHash:    j.Hash,
		Cached:      j.Cached,
		Error:       j.ErrMsg,
		SubmittedAt: j.Submitted,
	}
	if j.Progress != nil {
		p := *j.Progress
		w.Progress = &p
	}
	if !j.Started.IsZero() {
		t := j.Started
		w.StartedAt = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		w.FinishedAt = &t
	}
	if includeFront && j.State == StateDone {
		w.Front = j.Front
	}
	return w
}

// FinishLocked moves the job to a terminal state: a done job takes front,
// any other records msg. Only the first call transitions and reports true;
// the caller holds the job's lock and then hands the job to Retire.
func (j *Job) FinishLocked(state, msg string, front *FrontWire) bool {
	select {
	case <-j.done:
		return false
	default:
	}
	j.State = state
	if state == StateDone {
		j.Front = front
	} else {
		j.ErrMsg = msg
	}
	j.Finished = time.Now()
	close(j.done)
	return true
}

// Publish records the latest generation report and fans it out to the SSE
// subscribers. A full subscriber drops the event rather than stall the run;
// events are snapshots, and the terminal event carries the final state.
func (j *Job) Publish(p ProgressWire) {
	j.Lock()
	j.Progress = &p
	for sub := range j.subs {
		select {
		case sub <- p:
		default:
		}
	}
	j.Unlock()
}

// record is satisfied by *Job and by every type that embeds it.
type record interface {
	comparable
	job() *Job
}

// JobTable is a server's set of jobs: the ID index in listing order, the
// in-flight index by spec hash, the result LRU and ID allocation. The
// embedded Mutex guards it: ...Locked methods expect the caller to hold it,
// the others take it. Lock order is table, then job.
type JobTable[J record] struct {
	sync.Mutex
	prefix   string
	nextID   int64
	byID     map[string]J
	order    []J          // submission order; evicted jobs linger until compaction
	byHash   map[string]J // queued and running jobs; may briefly outlive the terminal transition
	finished []J          // terminal jobs, oldest-finished first
	fronts   *lruCache
}

// NewJobTable returns an empty table whose job IDs are prefix plus a
// zero-padded counter, with an LRU of cacheCap fronts.
func NewJobTable[J record](prefix string, cacheCap int) *JobTable[J] {
	return &JobTable[J]{
		prefix: prefix,
		byID:   make(map[string]J),
		byHash: make(map[string]J),
		fronts: newLRUCache(cacheCap),
	}
}

// NewJobLocked allocates the next job ID and returns a fresh record, not
// yet in the table.
func (t *JobTable[J]) NewJobLocked(spec JobSpec, hash string) *Job {
	t.nextID++
	return newJob(fmt.Sprintf("%s%06d", t.prefix, t.nextID), spec, hash, time.Now())
}

// UnallocateLocked returns the ID of the newest record, which was rejected
// before it was added, so IDs stay dense.
func (t *JobTable[J]) UnallocateLocked() { t.nextID-- }

// AddActiveLocked adds a queued job and indexes it as the in-flight job
// for its spec hash.
func (t *JobTable[J]) AddActiveLocked(j J) {
	r := j.job()
	t.byID[r.ID] = j
	t.order = append(t.order, j)
	t.byHash[r.Hash] = j
}

// AddFinishedLocked adds a job that is terminal already (served from the
// cache, or recovered finished from a store).
func (t *JobTable[J]) AddFinishedLocked(j J) {
	t.byID[j.job().ID] = j
	t.order = append(t.order, j)
	t.retainLocked(j)
}

// Retire files a job that has just made its terminal transition: it leaves
// the in-flight index unless a newer job replaced it there, a freshly
// computed front enters the LRU, and the job joins the terminal records.
func (t *JobTable[J]) Retire(j J) {
	r := j.job()
	r.Lock()
	var front *FrontWire
	if r.State == StateDone && !r.Cached {
		front = r.Front
	}
	r.Unlock()
	t.Lock()
	defer t.Unlock()
	if t.byHash[r.Hash] == j {
		delete(t.byHash, r.Hash)
	}
	if front != nil {
		t.fronts.Add(r.Hash, front)
	}
	t.retainLocked(j)
}

// retainLocked keeps the newest MaxTerminalJobs terminal jobs. The listing
// order drops evicted jobs once they outnumber the live ones, so no finish
// rescans the table.
func (t *JobTable[J]) retainLocked(j J) {
	t.finished = append(t.finished, j)
	for len(t.finished) > MaxTerminalJobs {
		delete(t.byID, t.finished[0].job().ID)
		var zero J
		t.finished[0] = zero
		t.finished = t.finished[1:]
	}
	if len(t.order) > 2*len(t.byID) {
		live := t.order[:0]
		for _, o := range t.order {
			if t.byID[o.job().ID] == o {
				live = append(live, o)
			}
		}
		clear(t.order[len(live):])
		t.order = live
	}
}

// ActiveLocked returns the queued or running job for a spec hash, if any.
func (t *JobTable[J]) ActiveLocked(hash string) (J, bool) {
	j, ok := t.byHash[hash]
	if !ok {
		return j, false
	}
	r := j.job()
	r.Lock()
	defer r.Unlock()
	return j, r.State == StateQueued || r.State == StateRunning
}

// CachedLocked returns the front cached for a spec hash: from the LRU, or
// from an in-flight job that finished done but is not yet retired.
func (t *JobTable[J]) CachedLocked(hash string) (*FrontWire, bool) {
	if front, ok := t.fronts.Get(hash); ok {
		return front, true
	}
	j, ok := t.byHash[hash]
	if !ok {
		return nil, false
	}
	r := j.job()
	r.Lock()
	defer r.Unlock()
	return r.Front, r.State == StateDone
}

// AddFrontLocked adds a front found in a store to the LRU.
func (t *JobTable[J]) AddFrontLocked(hash string, front *FrontWire) {
	t.fronts.Add(hash, front)
}

// CacheLen is the LRU's current entry count.
func (t *JobTable[J]) CacheLen() int {
	t.Lock()
	defer t.Unlock()
	return t.fronts.Len()
}

// Get returns the job with the given ID.
func (t *JobTable[J]) Get(id string) (J, bool) {
	t.Lock()
	defer t.Unlock()
	j, ok := t.byID[id]
	return j, ok
}

// List returns the table's jobs in submission order.
func (t *JobTable[J]) List() []J {
	t.Lock()
	defer t.Unlock()
	out := make([]J, 0, len(t.byID))
	for _, j := range t.order {
		if t.byID[j.job().ID] == j {
			out = append(out, j)
		}
	}
	return out
}

// AnswerCachedLocked answers a submission from a cached front (same
// canonical spec, same deterministic front): j is done at birth, the table
// lock is released, and j's records are journaled best-effort — the front
// is durable already; they keep GET /v1/jobs/{id} answering after a restart.
func (t *JobTable[J]) AnswerCachedLocked(w http.ResponseWriter, st *store.Store, j J, front *FrontWire, accept []byte) {
	r := j.job()
	r.State, r.Cached, r.Front, r.Finished = StateDone, true, front, r.Submitted
	close(r.done)
	t.AddFinishedLocked(j)
	t.Unlock()
	if st != nil {
		_ = st.AcceptJob(r.ID, r.Hash, accept, r.Submitted)
		JournalFinish(st, r)
	}
	WriteJSON(w, http.StatusOK, r.Wire(true))
}

// LoadResultsLocked fills the LRU from the store's persistent results,
// oldest first, so the newest end up most recently used, and moves ID
// allocation past the newest ID the store has issued.
func (t *JobTable[J]) LoadResultsLocked(st *store.Store) {
	for _, r := range st.Results() {
		var fw FrontWire
		if err := json.Unmarshal(r.Payload, &fw); err == nil {
			t.fronts.Add(r.Hash, &fw)
		}
	}
	t.noteIDLocked(st.LastAccepted())
}

// noteIDLocked keeps ID allocation past an ID issued earlier.
func (t *JobTable[J]) noteIDLocked(id string) {
	var n int64
	if _, err := fmt.Sscanf(id, t.prefix+"%d", &n); err == nil && n > t.nextID {
		t.nextID = n
	}
}

// RestoreLocked rebuilds a job from its store record under its old ID; data
// is the spec the record was accepted with. A pending record comes back
// queued, for AddActiveLocked; a terminal one with its outcome (and the
// LRU's front, if any), for AddFinishedLocked. A record whose spec no
// longer parses, or now hashes differently, comes back failed with that
// error: running it would resume a checkpoint computed for another spec.
// A pending one is journaled failed and its checkpoint dropped.
func (t *JobTable[J]) RestoreLocked(st *store.Store, jr *store.JobRecord, data []byte) *Job {
	spec, hash, err := ParseSpec(data)
	if err == nil && hash != jr.Hash {
		err = fmt.Errorf("service: stored spec now hashes to %s", hash)
	}
	j := newJob(jr.ID, spec, jr.Hash, jr.Submitted)
	t.noteIDLocked(jr.ID)
	switch {
	case err != nil:
		j.State, j.ErrMsg, j.Finished = StateFailed, "recovering job: "+err.Error(), jr.Finished
		if jr.Pending() {
			j.Finished = time.Now()
			JournalFinish(st, j)
			_ = st.ClearCheckpoint(jr.Hash)
		}
	case jr.Pending():
		j.State = StateQueued
		return j
	default:
		j.State, j.Cached, j.ErrMsg, j.Finished = jr.State, jr.Cached, jr.Error, jr.Finished
		if jr.State == StateDone {
			j.Front, _ = t.fronts.Get(jr.Hash)
		}
	}
	close(j.done)
	return j
}

// JournalFinish records a job's terminal state; a computed done front
// becomes the store's result for the spec hash. Best-effort: a store error
// degrades durability, never the response. A nil store is a no-op.
func JournalFinish(st *store.Store, j *Job) {
	if st == nil {
		return
	}
	j.Lock()
	state, errMsg, cached, front, finished := j.State, j.ErrMsg, j.Cached, j.Front, j.Finished
	j.Unlock()
	var payload json.RawMessage
	if state == StateDone && front != nil && !cached {
		payload, _ = json.Marshal(front)
	}
	_ = st.FinishJob(j.ID, state, j.Hash, errMsg, cached, payload, finished)
}
