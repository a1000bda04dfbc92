package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/stream"
)

// RecoveredSession is one session reassembled from the log: the latest
// snapshot seen for it plus every delta journaled after that snapshot, in
// log order. Sessions with a close record are not reported at all.
type RecoveredSession struct {
	SID string
	// State and FP are the snapshot and its stamped fingerprint; the caller
	// must verify FP == State.Fingerprint() before trusting the state.
	State *stream.State
	FP    uint64
	// Deltas replay on top of State, in order.
	Deltas []stream.DeltaRecord
}

// RecoveredJob is one journaled job submission with no done record: it never
// finished (or finished only by shutdown drain) and must re-enqueue.
type RecoveredJob struct {
	ID   string
	Kind string
	Body json.RawMessage
}

// Recovery is everything Recover reassembled, plus its damage report.
type Recovery struct {
	// Sessions, in first-seen order, and unfinished Jobs, in submit order.
	Sessions []*RecoveredSession
	Jobs     []*RecoveredJob
	// Records and Deltas count what replayed; Segments what was scanned.
	Records  int
	Deltas   int
	Segments int
	// TornBytes is how many bytes the first torn or corrupt frame cut off
	// (including every byte of later segments, which cannot be replayed out
	// of order); zero means the log was clean. Orphans counts deltas whose
	// session had no live snapshot — expected only after compaction races
	// with a close, never in a healthy log.
	TornBytes int64
	Orphans   int
}

// Recover replays every segment that existed before Open, in order, and
// reassembles the live sessions and unfinished jobs. Replay stops at the
// first torn or corrupt frame (see the package documentation); what was
// read up to that point is returned with TornBytes reporting the damage.
func (l *Log) Recover() (*Recovery, error) {
	rec := &Recovery{}
	sessions := make(map[string]*RecoveredSession)
	var sessionOrder []string
	jobs := make(map[string]*RecoveredJob)
	var jobOrder []string
	doneJobs := make(map[string]struct{})

	torn := false
	for _, idx := range l.prior {
		data, err := os.ReadFile(segPath(l.dir, idx))
		if err != nil {
			return nil, fmt.Errorf("wal: reading segment %d: %w", idx, err)
		}
		if torn {
			// Frames after a tear are unordered relative to the lost ones;
			// count them as damage rather than replaying them wrong.
			rec.TornBytes += int64(len(data))
			continue
		}
		rec.Segments++
		if !strings.HasPrefix(string(data[:min(len(data), len(segmentMagic))]), segmentMagic) {
			rec.TornBytes += int64(len(data))
			torn = true
			continue
		}
		off := len(segmentMagic)
		for off < len(data) {
			r, consumed, ok := decodeFrame(data[off:])
			if !ok {
				rec.TornBytes += int64(len(data) - off)
				torn = true
				break
			}
			off += consumed
			rec.Records++
			switch r.Kind {
			case KindSessionSnapshot:
				if r.SID == "" || r.State == nil {
					rec.Orphans++
					continue
				}
				s := sessions[r.SID]
				if s == nil {
					s = &RecoveredSession{SID: r.SID}
					sessions[r.SID] = s
					sessionOrder = append(sessionOrder, r.SID)
				}
				s.State, s.FP = r.State, r.FP
				s.Deltas = nil // the snapshot subsumes everything before it
			case KindSessionDelta:
				s := sessions[r.SID]
				if s == nil || r.Delta == nil {
					rec.Orphans++
					continue
				}
				s.Deltas = append(s.Deltas, *r.Delta)
				rec.Deltas++
			case KindSessionClose:
				delete(sessions, r.SID)
			case KindJobSubmit:
				if r.JobID == "" {
					rec.Orphans++
					continue
				}
				if _, done := doneJobs[r.JobID]; done {
					continue // finished before the crash; never re-run
				}
				if _, dup := jobs[r.JobID]; dup {
					continue // checkpoint re-journal of a still-queued job
				}
				jobs[r.JobID] = &RecoveredJob{ID: r.JobID, Kind: r.JobKind, Body: r.JobBody}
				jobOrder = append(jobOrder, r.JobID)
			case KindJobDone:
				doneJobs[r.JobID] = struct{}{}
				delete(jobs, r.JobID)
			default:
				// A kind from a future version: ignoring it is the only
				// forward-compatible option.
				rec.Orphans++
			}
		}
	}

	for _, sid := range sessionOrder {
		if s := sessions[sid]; s != nil {
			rec.Sessions = append(rec.Sessions, s)
		}
	}
	for _, id := range jobOrder {
		if j := jobs[id]; j != nil {
			rec.Jobs = append(rec.Jobs, j)
		}
	}
	return rec, nil
}
