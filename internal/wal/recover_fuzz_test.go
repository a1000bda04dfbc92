package wal

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/stream"
)

// FuzzWALRecover appends arbitrary bytes to the last segment of a valid log,
// then reopens and recovers it. Recovery must not panic, must replay every
// frame the bytes begin with and report the rest as TornBytes, and, when the
// bytes do not begin with a whole frame, must recover exactly the sessions
// and jobs of the valid log. Frames that do parse may legitimately close a
// session or finish a job, so only their count is checked.
func FuzzWALRecover(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	st := testState(1)
	for _, rec := range []*Record{
		{Kind: KindSessionSnapshot, SID: "s-a", State: st, FP: st.Fingerprint()},
		{Kind: KindSessionDelta, SID: "s-a", Delta: &stream.DeltaRecord{Op: "add", ID: 2, Size: 5}},
		{Kind: KindJobSubmit, JobID: "j-1", JobKind: "plan", JobBody: []byte(`{"x":1}`)},
		{Kind: KindJobSubmit, JobID: "j-2", JobKind: "execute", JobBody: []byte(`{"y":2}`)},
		{Kind: KindJobDone, JobID: "j-1"},
	} {
		if err := l.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	seg := segPath(dir, 1)
	valid, err := os.ReadFile(seg)
	if err != nil {
		f.Fatal(err)
	}
	want := recoverSegment(f, valid)
	if want.TornBytes != 0 || len(want.Sessions) != 1 || len(want.Jobs) != 1 {
		f.Fatalf("the valid log recovers as %+v", want)
	}

	done, err := encodeFrame(nil, &Record{Kind: KindJobDone, JobID: "j-2"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte(segmentMagic))
	f.Add(done[:frameHeaderBytes])
	f.Add(done[:len(done)-1])
	f.Add(done)
	f.Add(append(append([]byte(nil), done...), 0xff, 0xff, 0xff, 0x7f))
	f.Add(valid[len(segmentMagic):])

	f.Fuzz(func(t *testing.T, tail []byte) {
		got := recoverSegment(t, append(append([]byte(nil), valid...), tail...))
		frames, rest := 0, tail
		for len(rest) > 0 {
			_, n, ok := decodeFrame(rest)
			if !ok {
				break
			}
			frames, rest = frames+1, rest[n:]
		}
		if got.TornBytes != int64(len(rest)) {
			t.Fatalf("TornBytes = %d, want the %d bytes after the tail's %d whole frames", got.TornBytes, len(rest), frames)
		}
		if got.Records != want.Records+frames {
			t.Fatalf("replayed %d records, want %d of the valid log and %d of the tail", got.Records, want.Records, frames)
		}
		if frames > 0 {
			return
		}
		if !reflect.DeepEqual(got.Sessions, want.Sessions) || !reflect.DeepEqual(got.Jobs, want.Jobs) {
			t.Fatalf("recovered sessions %+v and jobs %+v, want the valid log's %+v and %+v",
				got.Sessions, got.Jobs, want.Sessions, want.Jobs)
		}
	})
}

// recoverSegment writes data as the only segment of a fresh log directory,
// reopens it and recovers it.
func recoverSegment(tb testing.TB, data []byte) *Recovery {
	tb.Helper()
	dir := tb.TempDir()
	if err := os.WriteFile(segPath(dir, 1), data, 0o644); err != nil {
		tb.Fatal(err)
	}
	l, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	rec, err := l.Recover()
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}
