package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var t0 = time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)

func openStore(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestStoreJobLifecycleSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})

	spec := json.RawMessage(`{"benchmark":"sobel"}`)
	front := json.RawMessage(`{"points":[{"objectives":[1,2]}]}`)
	if err := s.AcceptJob("j000001", "aaaa", spec, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.AcceptJob("j000002", "bbbb", spec, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.FinishJob("j000001", "done", "aaaa", "", false, front, t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	jobs := s2.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("got %d jobs, want 2", len(jobs))
	}
	if jobs[0].ID != "j000001" || jobs[0].State != "done" || jobs[0].Pending() {
		t.Fatalf("job1 = %+v", jobs[0])
	}
	if jobs[1].ID != "j000002" || !jobs[1].Pending() {
		t.Fatalf("job2 should be pending, got %+v", jobs[1])
	}
	if got, ok := s2.Result("aaaa"); !ok || !bytes.Equal(got, front) {
		t.Fatalf("Result(aaaa) = %q, %v", got, ok)
	}
	if _, ok := s2.Result("bbbb"); ok {
		t.Fatal("pending job has a result")
	}
}

func TestStoreCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if err := s.SaveCheckpoint("hash1", json.RawMessage(`{"gen":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint("hash1", json.RawMessage(`{"gen":5}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint("hash2", json.RawMessage(`{"gen":9}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.ClearCheckpoint("hash2"); err != nil {
		t.Fatal(err)
	}
	if err := s.ClearCheckpoint("absent"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if cp, ok := s2.Checkpoint("hash1"); !ok || string(cp) != `{"gen":5}` {
		t.Fatalf("Checkpoint(hash1) = %q, %v", cp, ok)
	}
	if _, ok := s2.Checkpoint("hash2"); ok {
		t.Fatal("cleared checkpoint survived reopen")
	}
}

func TestStoreCompactionPreservesState(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{CompactAt: 1 << 30})
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("j%06d", i+1)
		hash := fmt.Sprintf("h%04d", i)
		if err := s.AcceptJob(id, hash, json.RawMessage(`{"i":`+fmt.Sprint(i)+`}`), t0); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := s.FinishJob(id, "done", hash, "", false,
				json.RawMessage(`{"front":`+fmt.Sprint(i)+`}`), t0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.SaveCheckpoint("live", json.RawMessage(`{"gen":3}`)); err != nil {
		t.Fatal(err)
	}
	before := s.Jobs()
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := s.Stats().WALBytes; got != 0 {
		t.Fatalf("WAL not reset after compaction: %d bytes", got)
	}
	// Post-compaction appends land in the fresh WAL.
	if err := s.AcceptJob("j000011", "h-post", json.RawMessage(`{}`), t0); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	after := s2.Jobs()
	if len(after) != len(before)+1 {
		t.Fatalf("got %d jobs after compaction+reopen, want %d", len(after), len(before)+1)
	}
	for i, j := range before {
		if after[i].ID != j.ID || after[i].State != j.State || !bytes.Equal(after[i].Spec, j.Spec) {
			t.Fatalf("job %d mismatch: %+v vs %+v", i, after[i], j)
		}
	}
	if cp, ok := s2.Checkpoint("live"); !ok || string(cp) != `{"gen":3}` {
		t.Fatalf("checkpoint lost in compaction: %q, %v", cp, ok)
	}
	results := s2.Results()
	if len(results) != 5 {
		t.Fatalf("got %d results, want 5", len(results))
	}
	if results[0].Hash != "h0000" || results[4].Hash != "h0008" {
		t.Fatalf("result order lost: %v … %v", results[0].Hash, results[4].Hash)
	}
}

func TestStoreAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{CompactAt: 512})
	big := json.RawMessage(`{"pad":"` + string(bytes.Repeat([]byte{'x'}, 200)) + `"}`)
	for i := 0; i < 10; i++ {
		if err := s.SaveCheckpoint("h", big); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatal("no automatic compaction despite tiny CompactAt")
	}
	if st.WALBytes > 512 {
		t.Fatalf("WAL still %d bytes after auto-compaction", st.WALBytes)
	}
	s.Close()
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if cp, ok := s2.Checkpoint("h"); !ok || !bytes.Equal(cp, big) {
		t.Fatal("checkpoint lost across auto-compaction + reopen")
	}
}

func TestStoreTrimsTerminalJobsNotPending(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{MaxTerminalJobs: 3})
	defer s.Close()
	if err := s.AcceptJob("j-pending", "hp", json.RawMessage(`{}`), t0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("j-t%d", i)
		if err := s.AcceptJob(id, "h", json.RawMessage(`{}`), t0); err != nil {
			t.Fatal(err)
		}
		if err := s.FinishJob(id, "failed", "h", "boom", false, nil, t0); err != nil {
			t.Fatal(err)
		}
	}
	jobs := s.Jobs()
	terminal, pending := 0, 0
	for _, j := range jobs {
		if j.Pending() {
			pending++
		} else {
			terminal++
		}
	}
	if pending != 1 {
		t.Fatalf("pending job trimmed: %d pending", pending)
	}
	if terminal != 3 {
		t.Fatalf("terminal jobs = %d, want 3", terminal)
	}
	// The survivors must be the newest.
	if jobs[len(jobs)-1].ID != "j-t5" {
		t.Fatalf("newest terminal job trimmed, last = %s", jobs[len(jobs)-1].ID)
	}
}

// TestStoreTrimsOldestFinished pins the store's eviction order to the
// in-memory job tables': the oldest-finished terminal record goes first,
// whatever the acceptance order, and the retained set is the same after a
// WAL replay and after a compaction snapshot.
func TestStoreTrimsOldestFinished(t *testing.T) {
	for _, compact := range []bool{false, true} {
		dir := t.TempDir()
		s := openStore(t, dir, Options{MaxTerminalJobs: 1})
		for _, id := range []string{"A", "B"} {
			if err := s.AcceptJob(id, "h"+id, json.RawMessage(`{}`), t0); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []string{"B", "A"} {
			if err := s.FinishJob(id, "failed", "h"+id, "boom", false, nil, t0); err != nil {
				t.Fatal(err)
			}
		}
		if compact {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := openStore(t, dir, Options{MaxTerminalJobs: 1})
		jobs := s2.Jobs()
		if len(jobs) != 1 || jobs[0].ID != "A" {
			ids := make([]string, len(jobs))
			for i, j := range jobs {
				ids[i] = j.ID
			}
			t.Fatalf("compact=%v: retained %v, want [A]", compact, ids)
		}
		if got := s2.LastAccepted(); got != "B" {
			t.Fatalf("compact=%v: last accepted %q, want B (trimmed but still issued)", compact, got)
		}
		// A later finish keeps evicting in finish order after the reopen.
		if err := s2.AcceptJob("C", "hC", json.RawMessage(`{}`), t0); err != nil {
			t.Fatal(err)
		}
		if err := s2.FinishJob("C", "failed", "hC", "boom", false, nil, t0); err != nil {
			t.Fatal(err)
		}
		if jobs := s2.Jobs(); len(jobs) != 1 || jobs[0].ID != "C" {
			t.Fatalf("compact=%v: after reopen the next finish kept %d records", compact, len(jobs))
		}
		s2.Close()
	}
}

func TestStoreResultCap(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{MaxResults: 2})
	defer s.Close()
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("j%d", i)
		hash := fmt.Sprintf("h%d", i)
		if err := s.AcceptJob(id, hash, json.RawMessage(`{}`), t0); err != nil {
			t.Fatal(err)
		}
		if err := s.FinishJob(id, "done", hash, "", false, json.RawMessage(`{"i":`+fmt.Sprint(i)+`}`), t0); err != nil {
			t.Fatal(err)
		}
	}
	results := s.Results()
	if len(results) != 2 || results[0].Hash != "h2" || results[1].Hash != "h3" {
		t.Fatalf("Results() = %+v, want h2,h3", results)
	}
}

func TestStoreTornWALTailAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if err := s.AcceptJob("j000001", "h1", json.RawMessage(`{"ok":true}`), t0); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: garbage half-frame at the tail.
	walPath := filepath.Join(dir, "wal")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	jobs := s2.Jobs()
	if len(jobs) != 1 || jobs[0].ID != "j000001" {
		t.Fatalf("jobs after torn tail = %+v", jobs)
	}
	if s2.Stats().TornBytes != 6 {
		t.Fatalf("TornBytes = %d, want 6", s2.Stats().TornBytes)
	}
}

func TestStoreUndecodableRecordFailsOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// CRC-valid frame whose payload is not a JSON record: a writer bug, not
	// media corruption — open must fail loudly.
	if err := os.WriteFile(filepath.Join(dir, "wal"), appendFrame(nil, []byte("not-json")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted an undecodable record")
	}
}
