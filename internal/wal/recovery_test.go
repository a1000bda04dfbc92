package wal_test

// Crash-recovery property test: a journaled session, its WAL truncated at a
// random byte offset (a simulated torn write), must recover to a state whose
// fingerprint matches what the live session had at exactly that version —
// and the recovered schema must pass the executor's conformance audit.

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/workload"
)

func solve(_ context.Context, sizes []core.Size, q core.Size) (*core.MappingSchema, error) {
	set, err := core.NewInputSet(sizes)
	if err != nil {
		return nil, err
	}
	return a2a.Solve(set, q)
}

// walJournal is the minimal stream.Journal-over-Log adapter (cmd/pland has
// the production twin). snapshots counts the snapshots it appended.
type walJournal struct {
	sid       string
	log       *wal.Log
	snapshots int
}

func (j *walJournal) Delta(rec stream.DeltaRecord) {
	_ = j.log.Append(&wal.Record{Kind: wal.KindSessionDelta, SID: j.sid, Delta: &rec})
}

func (j *walJournal) Snapshot(st *stream.State) {
	j.snapshots++
	_ = j.log.Append(&wal.Record{Kind: wal.KindSessionSnapshot, SID: j.sid, State: st, FP: st.Fingerprint()})
}

// copyDir clones every WAL segment into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	names, err := filepath.Glob(filepath.Join(src, "*.wal"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	return dst
}

// truncateAt cuts the log at a global byte offset: the segment containing the
// offset is truncated there and every later segment is deleted, which is
// exactly the shape a torn tail write leaves behind.
func truncateAt(t *testing.T, dir string, offset int64) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	var cut bool
	for _, name := range names { // glob is sorted; zero-padded names sort by index
		if cut {
			if err := os.Remove(name); err != nil {
				t.Fatalf("remove %s: %v", name, err)
			}
			continue
		}
		info, err := os.Stat(name)
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		if offset >= info.Size() {
			offset -= info.Size()
			continue
		}
		if err := os.Truncate(name, offset); err != nil {
			t.Fatalf("truncate %s: %v", name, err)
		}
		cut = true
	}
}

func TestCrashRecoveryProperty(t *testing.T) {
	const (
		q       = core.Size(256)
		initial = 12
		steps   = 150
		sid     = "s-prop"
	)
	trace, err := workload.Churn(workload.ChurnSpec{
		Initial: initial, Steps: steps,
		Sizes: workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 32},
	}, 7)
	if err != nil {
		t.Fatalf("churn: %v", err)
	}
	initialSizes, err := workload.Sizes(workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 32}, initial, 11)
	if err != nil {
		t.Fatalf("sizes: %v", err)
	}

	srcDir := filepath.Join(t.TempDir(), "wal")
	log, err := wal.Open(srcDir, wal.Options{Fsync: wal.SyncNever, SegmentBytes: 4096})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	journal := &walJournal{sid: sid, log: log}
	s, err := stream.NewSession(context.Background(), stream.Config{
		Capacity:         q,
		RebuildThreshold: -1, // rebuild swaps race the trace; keep the shadow exact
		Initial:          initialSizes,
		Replan:           solve,
		Journal:          journal,
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}

	// shadow maps session version -> fingerprint after every applied delta.
	shadow := make(map[uint64]uint64)
	record := func() {
		st := s.State()
		shadow[st.Version] = st.Fingerprint()
	}
	record()
	for i, ev := range trace {
		switch ev.Op {
		case workload.OpAdd:
			id, _, err := s.Add(ev.Size)
			if err != nil {
				t.Fatalf("step %d add: %v", i, err)
			}
			if id != ev.ID {
				t.Fatalf("step %d: session assigned ID %d, trace expected %d", i, id, ev.ID)
			}
		case workload.OpRemove:
			if _, err := s.Remove(ev.ID); err != nil {
				t.Fatalf("step %d remove %d: %v", i, ev.ID, err)
			}
		case workload.OpResize:
			if _, err := s.Resize(ev.ID, ev.Size); err != nil {
				t.Fatalf("step %d resize %d: %v", i, ev.ID, err)
			}
		}
		record()
		// Several mid-trace snapshots exercise subsumption.
		if (i+1)%40 == 0 {
			if err := s.WriteSnapshot(); err != nil {
				t.Fatalf("step %d: WriteSnapshot: %v", i, err)
			}
		}
	}
	if mid := journal.snapshots - 1; mid < 3 {
		t.Fatalf("%d mid-trace snapshots written, want at least 3", mid)
	}
	s.Close()
	if err := log.Close(); err != nil {
		t.Fatalf("log close: %v", err)
	}

	var total int64
	names, _ := filepath.Glob(filepath.Join(srcDir, "*.wal"))
	for _, name := range names {
		info, err := os.Stat(name)
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		total += info.Size()
	}
	if total == 0 {
		t.Fatal("empty WAL after the trace")
	}

	rng := rand.New(rand.NewSource(99))
	recovered := 0
	for trial := 0; trial < 12; trial++ {
		dir := copyDir(t, srcDir)
		// Offset 0 would erase the log entirely; anything else is fair game,
		// including mid-magic, mid-header, and mid-payload cuts.
		truncateAt(t, dir, 1+rng.Int63n(total-1))

		log2, err := wal.Open(dir, wal.Options{Fsync: wal.SyncNever})
		if err != nil {
			t.Fatalf("trial %d: reopen: %v", trial, err)
		}
		rec, err := log2.Recover()
		log2.Close()
		if err != nil {
			t.Fatalf("trial %d: Recover: %v", trial, err)
		}
		if len(rec.Sessions) == 0 {
			// The cut landed before the first complete snapshot; the log must
			// at least have reported the damage.
			if rec.TornBytes == 0 {
				t.Fatalf("trial %d: no session and no torn bytes", trial)
			}
			continue
		}
		rs := rec.Sessions[0]
		if rs.FP != rs.State.Fingerprint() {
			t.Fatalf("trial %d: CRC-clean snapshot fails its fingerprint stamp", trial)
		}
		s2, err := stream.RestoreSession(stream.Config{Replan: solve}, rs.State, rs.Deltas)
		if err != nil {
			t.Fatalf("trial %d: RestoreSession: %v", trial, err)
		}
		st := s2.State()
		want, ok := shadow[st.Version]
		if !ok {
			t.Fatalf("trial %d: recovered version %d never existed live", trial, st.Version)
		}
		if got := st.Fingerprint(); got != want {
			t.Fatalf("trial %d: version %d fingerprint = %d, live session had %d",
				trial, st.Version, got, want)
		}
		// The recovered schema must satisfy the paper's invariants: every
		// declared load within q, every required pair covered.
		snap := s2.Snapshot()
		if len(snap.IDs) > 0 {
			aud, err := exec.NewAuditor(snap.Schema, len(snap.IDs))
			if err != nil {
				t.Fatalf("trial %d: NewAuditor: %v", trial, err)
			}
			if err := aud.PreCheck(); err != nil {
				t.Fatalf("trial %d: recovered schema fails the audit: %v", trial, err)
			}
		}
		s2.Close()
		recovered++
	}
	if recovered == 0 {
		t.Fatal("no trial recovered a session; truncation offsets degenerate")
	}
}

func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []wal.Policy{wal.SyncNever, wal.SyncInterval} {
		b.Run(policy.String(), func(b *testing.B) {
			log, err := wal.Open(b.TempDir(), wal.Options{Fsync: policy})
			if err != nil {
				b.Fatalf("Open: %v", err)
			}
			defer log.Close()
			rec := &wal.Record{Kind: wal.KindSessionDelta, SID: "s-bench",
				Delta: &stream.DeltaRecord{Op: "add", ID: 1, Size: 16}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := log.Append(rec); err != nil {
					b.Fatalf("Append: %v", err)
				}
			}
		})
	}
}

// BenchmarkSessionDeltaJournaled prices one churn delta with the WAL journal
// attached under the default -fsync=interval policy, the gate's counterpart
// to stream's BenchmarkSessionDelta (journaling must not significantly
// regress the delta hot path).
func BenchmarkSessionDeltaJournaled(b *testing.B) {
	const m = 1000
	sizes, err := workload.Sizes(workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 64}, m, 42)
	if err != nil {
		b.Fatalf("workload: %v", err)
	}
	log, err := wal.Open(b.TempDir(), wal.Options{Fsync: wal.SyncInterval})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	defer log.Close()
	s, err := stream.NewSession(context.Background(), stream.Config{
		Capacity:         1024,
		RebuildThreshold: -1,
		Initial:          sizes,
		Replan:           solve,
		Journal:          &walJournal{sid: "s-bench", log: log},
	})
	if err != nil {
		b.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Remove the oldest live input and add a replacement, exactly as
		// BenchmarkSessionDelta/incremental does.
		if _, err := s.Remove(i); err != nil {
			b.Fatalf("Remove(%d): %v", i, err)
		}
		if _, _, err := s.Add(sizes[i%m]); err != nil {
			b.Fatalf("Add: %v", err)
		}
	}
}
