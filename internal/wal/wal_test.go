package wal

// In-package unit tests for framing, segment lifecycle, torn-tail handling,
// and checkpoint compaction. The crash-recovery property test (real sessions,
// random truncation) lives in recovery_test.go as an external test.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

// testState builds a minimal consistent session state for framing tests.
func testState(version uint64) *stream.State {
	return &stream.State{
		Capacity: 10,
		Next:     2,
		Version:  version,
		IDs:      []int{0, 1},
		Sizes:    []core.Size{3, 4},
		Reducers: []stream.StateReducer{{Members: []int{0, 1}}},
	}
}

func mustAppend(t *testing.T, l *Log, rec *Record) {
	t.Helper()
	if err := l.Append(rec); err != nil {
		t.Fatalf("Append(%s): %v", rec.Kind, err)
	}
}

func TestFrameRoundtrip(t *testing.T) {
	st := testState(3)
	buf, err := encodeFrame(nil, &Record{Kind: KindSessionSnapshot, SID: "s-1", State: st, FP: st.Fingerprint()})
	if err != nil {
		t.Fatalf("encodeFrame: %v", err)
	}
	rec, consumed, ok := decodeFrame(buf)
	if !ok || consumed != len(buf) {
		t.Fatalf("decodeFrame: ok=%v consumed=%d len=%d", ok, consumed, len(buf))
	}
	if rec.Kind != KindSessionSnapshot || rec.SID != "s-1" || rec.State == nil {
		t.Fatalf("decoded record = %+v", rec)
	}
	if got := rec.State.Fingerprint(); got != rec.FP {
		t.Fatalf("fingerprint did not survive the roundtrip: %d != %d", got, rec.FP)
	}

	// Every single-byte corruption must be caught (CRC over the payload,
	// length plausibility over the header).
	for i := range buf {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x40
		if _, _, ok := decodeFrame(bad); ok {
			t.Fatalf("decodeFrame accepted a frame with byte %d flipped", i)
		}
	}
	if _, _, ok := decodeFrame(buf[:5]); ok {
		t.Fatal("decodeFrame accepted a short header")
	}
	if _, _, ok := decodeFrame(buf[:len(buf)-1]); ok {
		t.Fatal("decodeFrame accepted a short payload")
	}
}

func TestAppendRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st := testState(1)
	mustAppend(t, l, &Record{Kind: KindSessionSnapshot, SID: "s-a", State: st, FP: st.Fingerprint()})
	mustAppend(t, l, &Record{Kind: KindSessionDelta, SID: "s-a", Delta: &stream.DeltaRecord{Op: "add", ID: 2, Size: 5}})
	mustAppend(t, l, &Record{Kind: KindSessionDelta, SID: "s-a", Delta: &stream.DeltaRecord{Op: "remove", ID: 0}})
	stB := testState(7)
	mustAppend(t, l, &Record{Kind: KindSessionSnapshot, SID: "s-b", State: stB, FP: stB.Fingerprint()})
	mustAppend(t, l, &Record{Kind: KindSessionClose, SID: "s-b"})
	mustAppend(t, l, &Record{Kind: KindJobSubmit, JobID: "j-1", JobKind: "plan", JobBody: []byte(`{"x":1}`)})
	mustAppend(t, l, &Record{Kind: KindJobSubmit, JobID: "j-2", JobKind: "execute", JobBody: []byte(`{"y":2}`)})
	mustAppend(t, l, &Record{Kind: KindJobDone, JobID: "j-1"})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	rec, err := l2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.TornBytes != 0 || rec.Orphans != 0 {
		t.Fatalf("clean log recovered with TornBytes=%d Orphans=%d", rec.TornBytes, rec.Orphans)
	}
	if len(rec.Sessions) != 1 || rec.Sessions[0].SID != "s-a" {
		t.Fatalf("recovered sessions = %+v (want only s-a; s-b was closed)", rec.Sessions)
	}
	sa := rec.Sessions[0]
	if sa.FP != sa.State.Fingerprint() {
		t.Fatalf("recovered snapshot fingerprint mismatch")
	}
	if len(sa.Deltas) != 2 || sa.Deltas[0].Op != "add" || sa.Deltas[1].Op != "remove" {
		t.Fatalf("recovered deltas = %+v", sa.Deltas)
	}
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "j-2" || rec.Jobs[0].Kind != "execute" {
		t.Fatalf("recovered jobs = %+v (want only unfinished j-2)", rec.Jobs)
	}
	if string(rec.Jobs[0].Body) != `{"y":2}` {
		t.Fatalf("job body = %s", rec.Jobs[0].Body)
	}
}

// TestRecoverOlderSnapshotWithOwnerBlob: snapshots written by older builds
// carry a "meta" member beside the state. A segment holding one, framed by
// hand, still recovers the session, and the member is simply dropped.
func TestRecoverOlderSnapshotWithOwnerBlob(t *testing.T) {
	dir := t.TempDir()
	st := testState(4)
	state, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(fmt.Sprintf(`{"k":"sess_snap","sid":"s-old","state":%s,"fp":%d,"meta":{"timeout_ms":-1,"no_cache":true}}`,
		state, st.Fingerprint()))
	seg := []byte("PLWAL001")
	seg = binary.LittleEndian.AppendUint32(seg, uint32(len(payload)))
	seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(payload))
	seg = append(seg, payload...)
	if err := os.WriteFile(segPath(dir, 1), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	rec, err := l.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.TornBytes != 0 || rec.Orphans != 0 || len(rec.Sessions) != 1 {
		t.Fatalf("recovered %+v, want one clean session", rec)
	}
	if s := rec.Sessions[0]; s.SID != "s-old" || s.FP != st.Fingerprint() || s.State.Fingerprint() != st.Fingerprint() {
		t.Fatalf("recovered session %+v does not match the snapshot written", s)
	}
}

// TestSnapshotSubsumesDeltas: a later snapshot resets the replay list, and a
// done record seen before a (checkpoint-rewritten) submit suppresses it.
func TestSnapshotSubsumesDeltas(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st1, st2 := testState(1), testState(9)
	mustAppend(t, l, &Record{Kind: KindSessionSnapshot, SID: "s", State: st1, FP: st1.Fingerprint()})
	mustAppend(t, l, &Record{Kind: KindSessionDelta, SID: "s", Delta: &stream.DeltaRecord{Op: "add", ID: 2, Size: 1}})
	mustAppend(t, l, &Record{Kind: KindSessionSnapshot, SID: "s", State: st2, FP: st2.Fingerprint()})
	mustAppend(t, l, &Record{Kind: KindSessionDelta, SID: "s", Delta: &stream.DeltaRecord{Op: "resize", ID: 1, Size: 6}})
	// Done-before-submit: the job finished, then a checkpoint re-journaled a
	// stale submit. Recovery must not resurrect it.
	mustAppend(t, l, &Record{Kind: KindJobDone, JobID: "j"})
	mustAppend(t, l, &Record{Kind: KindJobSubmit, JobID: "j", JobKind: "plan", JobBody: []byte(`{}`)})
	l.Close()

	l2, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	rec, err := l2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rec.Sessions) != 1 {
		t.Fatalf("sessions = %+v", rec.Sessions)
	}
	s := rec.Sessions[0]
	if s.State.Version != 9 {
		t.Fatalf("latest snapshot must win: version = %d, want 9", s.State.Version)
	}
	if len(s.Deltas) != 1 || s.Deltas[0].Op != "resize" {
		t.Fatalf("deltas after snapshot = %+v, want just the resize", s.Deltas)
	}
	if len(rec.Jobs) != 0 {
		t.Fatalf("done-before-submit job resurrected: %+v", rec.Jobs)
	}
}

func TestTornTailStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st := testState(1)
	mustAppend(t, l, &Record{Kind: KindSessionSnapshot, SID: "s", State: st, FP: st.Fingerprint()})
	for i := 0; i < 10; i++ {
		mustAppend(t, l, &Record{Kind: KindSessionDelta, SID: "s", Delta: &stream.DeltaRecord{Op: "add", ID: 2 + i, Size: 1}})
	}
	l.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("globbing segments: %v (%d)", err, len(segs))
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	// Cut 3 bytes off the tail: the last frame is torn mid-payload.
	if err := os.Truncate(segs[0], info.Size()-3); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	l2, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	rec, err := l2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.TornBytes == 0 {
		t.Fatal("truncated log recovered with TornBytes = 0")
	}
	if len(rec.Sessions) != 1 || len(rec.Sessions[0].Deltas) != 9 {
		t.Fatalf("recovered %d deltas, want 9 (all but the torn one)",
			len(rec.Sessions[0].Deltas))
	}
}

// TestCorruptFrameStopsWholeReplay: a flipped byte mid-log must stop replay
// at that frame — including every later segment, which would otherwise
// replay out of order relative to the lost records.
func TestCorruptFrameStopsWholeReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st := testState(1)
	mustAppend(t, l, &Record{Kind: KindSessionSnapshot, SID: "s", State: st, FP: st.Fingerprint()})
	for i := 0; i < 40; i++ {
		mustAppend(t, l, &Record{Kind: KindSessionDelta, SID: "s", Delta: &stream.DeltaRecord{Op: "add", ID: 2 + i, Size: 1}})
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments from 256-byte rolling, got %d", len(segs))
	}

	// Flip one payload byte in the middle segment.
	mid := segs[len(segs)/2]
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	l2, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	rec, err := l2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.TornBytes == 0 {
		t.Fatal("corrupt frame not reported as torn")
	}
	// Every segment after the corrupt one must be counted as damage, so the
	// recovered deltas stop strictly before the flip.
	if got := len(rec.Sessions[0].Deltas); got >= 40 {
		t.Fatalf("replay did not stop at the corrupt frame: %d deltas", got)
	}
}

func TestSegmentRollAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	st := testState(1)
	for i := 0; i < 30; i++ {
		mustAppend(t, l, &Record{Kind: KindSessionDelta, SID: "s", Delta: &stream.DeltaRecord{Op: "add", ID: i, Size: 1}})
	}
	if n := l.Segments(); n < 2 {
		t.Fatalf("Segments() = %d after 30 appends at 256-byte segments, want >= 2", n)
	}

	barrier, err := l.BeginCheckpoint()
	if err != nil {
		t.Fatalf("BeginCheckpoint: %v", err)
	}
	// Re-journal the complete live state into the barrier segment.
	mustAppend(t, l, &Record{Kind: KindSessionSnapshot, SID: "s", State: st, FP: st.Fingerprint()})
	if err := l.EndCheckpoint(barrier); err != nil {
		t.Fatalf("EndCheckpoint: %v", err)
	}
	if n := l.Segments(); n != 1 {
		t.Fatalf("Segments() = %d after checkpoint, want 1 (all below the barrier compacted)", n)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(segs) != 1 {
		t.Fatalf("%d segment files on disk after checkpoint, want 1", len(segs))
	}

	// The compacted log must recover to exactly the checkpointed state.
	l.Close()
	l2, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	rec, err := l2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rec.Sessions) != 1 || len(rec.Sessions[0].Deltas) != 0 {
		t.Fatalf("compacted recovery = %+v, want the snapshot alone", rec.Sessions)
	}
}

func TestAppendAfterCloseAndSticky(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Append(&Record{Kind: KindSessionClose, SID: "s"}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if l.Err() == nil {
		t.Fatal("Err() nil after Close")
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{"always": SyncAlways, "Interval": SyncInterval, "NEVER": SyncNever}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
		if got.String() == "" {
			t.Fatalf("Policy(%v).String() empty", got)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

// waitFor polls cond every millisecond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// segmentSize is the on-disk size of the log's current segment.
func segmentSize(t *testing.T, l *Log) int64 {
	t.Helper()
	l.mu.Lock()
	path := segPath(l.dir, l.seg)
	l.mu.Unlock()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestIntervalFlusherSyncsOnlyADirtyLog pins the default policy: an idle
// log is never fsynced, and an append reaches the disk within a few
// intervals without any caller asking.
func TestIntervalFlusherSyncsOnlyADirtyLog(t *testing.T) {
	const interval = 5 * time.Millisecond
	l, err := Open(t.TempDir(), Options{Fsync: SyncInterval, FsyncInterval: interval})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	idle := func(what string) {
		t.Helper()
		before := obsFsyncs.Value()
		time.Sleep(10 * interval)
		if got := obsFsyncs.Value(); got != before {
			t.Fatalf("%s log fsynced %d times", what, got-before)
		}
	}
	idle("a fresh")

	before := obsFsyncs.Value()
	mustAppend(t, l, &Record{Kind: KindJobDone, JobID: "j"})
	waitFor(t, "the flusher wrote the append", func() bool {
		return segmentSize(t, l) > int64(len(segmentMagic))
	})
	waitFor(t, "the flusher fsynced the append", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return !l.dirty
	})
	if obsFsyncs.Value() == before {
		t.Fatal("the append reached the disk without an fsync")
	}
	idle("a flushed")
}

// TestCloseFlushes: an append the interval flusher has not reached yet is
// on disk once Close returns.
func TestCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: SyncInterval, FsyncInterval: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustAppend(t, l, &Record{Kind: KindJobSubmit, JobID: "j", JobKind: "plan"})
	if n := segmentSize(t, l); n > int64(len(segmentMagic)) {
		t.Fatalf("segment holds %d bytes before Close: the append was flushed already", n)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	rec, err := l2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "j" {
		t.Fatalf("recovered jobs %+v, want the one appended before Close", rec.Jobs)
	}
}

// TestWriteFailureSticks: once the interval flusher fails to write, every
// later append and checkpoint returns that failure instead of writing a log
// with a hole in it.
func TestWriteFailureSticks(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Fsync: SyncInterval, FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	l.mu.Lock()
	if err := l.f.Close(); err != nil { // the flusher's next write fails
		t.Fatal(err)
	}
	l.mu.Unlock()
	mustAppend(t, l, &Record{Kind: KindJobDone, JobID: "j"}) // buffered: no write yet
	waitFor(t, "the flusher failed", func() bool { return l.Err() != nil })
	sticky := l.Err()
	if !errors.Is(sticky, os.ErrClosed) {
		t.Fatalf("sticky error %v, want the failed write's", sticky)
	}
	if err := l.Append(&Record{Kind: KindJobDone, JobID: "k"}); err != sticky {
		t.Fatalf("Append after the failure: %v, want %v", err, sticky)
	}
	if _, err := l.BeginCheckpoint(); err != sticky {
		t.Fatalf("BeginCheckpoint after the failure: %v, want %v", err, sticky)
	}
}
