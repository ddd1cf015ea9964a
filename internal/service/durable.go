package service

import (
	"encoding/json"
	"sync"

	"repro/internal/core"
	"repro/internal/moea"
	"repro/internal/store"
)

// runCheckpoint is the durable form of one job's strategy progress: the
// engine snapshot of the stage in flight plus the fronts of stages already
// completed, keyed by stage name. It is stored as a single opaque blob
// under the job's spec hash, so two jobs with the same canonical spec
// share (and resume) the same checkpoint.
type runCheckpoint struct {
	Stages map[string]*moea.Checkpoint    `json:"stages,omitempty"`
	Fronts map[string]*core.FrontSnapshot `json:"fronts,omitempty"`
}

// jobCheckpointer adapts the store to core.Checkpointer for one running
// job. Every save rewrites the job's whole runCheckpoint blob — checkpoints
// are periodic and coarse, so simplicity beats incremental encoding. Saves
// are best-effort: a store error degrades durability, never the run.
// Safe for concurrent use (the Agnostic strategy saves from parallel
// layer goroutines).
type jobCheckpointer struct {
	mu   sync.Mutex
	st   *store.Store
	hash string
	cp   runCheckpoint
}

// newJobCheckpointer loads any checkpoint a previous incarnation left for
// the spec hash; the returned checkpointer then resumes completed stages
// and the interrupted one through the core.Checkpointer contract.
func newJobCheckpointer(st *store.Store, hash string) *jobCheckpointer {
	jc := &jobCheckpointer{st: st, hash: hash}
	if blob, ok := st.Checkpoint(hash); ok {
		if err := json.Unmarshal(blob, &jc.cp); err != nil {
			// An undecodable checkpoint (e.g. written by an older build)
			// only costs a restart from generation zero.
			jc.cp = runCheckpoint{}
		}
	}
	if jc.cp.Stages == nil {
		jc.cp.Stages = make(map[string]*moea.Checkpoint)
	}
	if jc.cp.Fronts == nil {
		jc.cp.Fronts = make(map[string]*core.FrontSnapshot)
	}
	return jc
}

func (jc *jobCheckpointer) SaveStage(stage string, cp *moea.Checkpoint) {
	jc.mu.Lock()
	defer jc.mu.Unlock()
	jc.cp.Stages[stage] = cp
	jc.persistLocked()
}

func (jc *jobCheckpointer) SaveFront(stage string, fs *core.FrontSnapshot) {
	jc.mu.Lock()
	defer jc.mu.Unlock()
	jc.cp.Fronts[stage] = fs
	delete(jc.cp.Stages, stage) // the front supersedes the mid-stage snapshot
	jc.persistLocked()
}

func (jc *jobCheckpointer) ResumeStage(stage string) *moea.Checkpoint {
	jc.mu.Lock()
	defer jc.mu.Unlock()
	return jc.cp.Stages[stage]
}

func (jc *jobCheckpointer) ResumeFront(stage string) *core.FrontSnapshot {
	jc.mu.Lock()
	defer jc.mu.Unlock()
	return jc.cp.Fronts[stage]
}

func (jc *jobCheckpointer) persistLocked() {
	blob, err := json.Marshal(&jc.cp)
	if err != nil {
		return
	}
	_ = jc.st.SaveCheckpoint(jc.hash, blob)
}

// recover rebuilds the server's state from the store before it begins
// serving: terminal jobs reappear with their recorded states, done fronts
// repopulate the result cache, and jobs that were accepted but never
// finished come back as the queued backlog, returned in acceptance order
// for re-enqueueing (or failed, when their spec no longer parses; see
// JobTable.RestoreLocked). Called from New before the workers start, so no
// locking is needed.
func (s *Server) recover(st *store.Store) []*job {
	s.jobs.LoadResultsLocked(st)
	var pending []*job
	for _, jr := range st.Jobs() {
		j := &job{Job: s.jobs.RestoreLocked(st, jr, jr.Spec)}
		if j.State == StateQueued {
			s.jobs.AddActiveLocked(j)
			pending = append(pending, j)
		} else {
			s.jobs.AddFinishedLocked(j)
		}
	}
	return pending
}
