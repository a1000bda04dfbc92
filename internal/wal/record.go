package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"repro/internal/stream"
)

// Record kinds; see the package documentation for each kind's semantics.
const (
	KindSessionSnapshot = "sess_snap"
	KindSessionDelta    = "sess_delta"
	KindSessionClose    = "sess_close"
	KindJobSubmit       = "job_submit"
	KindJobDone         = "job_done"
)

// Record is the one envelope every WAL entry uses; Kind picks which fields
// are meaningful and the rest are omitted from the JSON payload.
type Record struct {
	Kind string `json:"k"`
	// SID addresses the session for the three session kinds.
	SID string `json:"sid,omitempty"`
	// State and FP carry a session snapshot: the full serialized state and
	// its fingerprint stamp (recomputed and checked on recovery). Snapshots
	// written by older builds carry one more member, an owner blob, which
	// decoding ignores.
	State *stream.State `json:"state,omitempty"`
	FP    uint64        `json:"fp,omitempty"`
	// Delta is one applied session delta.
	Delta *stream.DeltaRecord `json:"delta,omitempty"`
	// JobID, JobKind, and JobBody carry the job kinds.
	JobID   string          `json:"job_id,omitempty"`
	JobKind string          `json:"job_kind,omitempty"`
	JobBody json.RawMessage `json:"job_body,omitempty"`
}

// Framing constants.
const (
	// segmentMagic opens every segment file.
	segmentMagic = "PLWAL001"
	// frameHeaderBytes is the length + CRC32 prefix of one frame.
	frameHeaderBytes = 8
	// maxRecordBytes bounds one payload; a length field beyond it is treated
	// as a torn frame, not an allocation request.
	maxRecordBytes = 64 << 20
)

// encodeFrame appends the framed record to buf and returns the result.
func encodeFrame(buf []byte, rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return buf, fmt.Errorf("wal: encoding record: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return buf, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte frame limit", len(payload), maxRecordBytes)
	}
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// decodeFrame reads one frame from data. It returns the decoded record and
// the bytes consumed; ok is false — with consumed 0 — when the bytes are a
// torn or corrupt frame (short header, implausible length, short payload,
// CRC mismatch, or undecodable JSON), at which point the caller must stop
// replaying this log entirely.
func decodeFrame(data []byte) (rec *Record, consumed int, ok bool) {
	if len(data) < frameHeaderBytes {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n == 0 || n > maxRecordBytes {
		return nil, 0, false
	}
	end := frameHeaderBytes + int(n)
	if len(data) < end {
		return nil, 0, false
	}
	payload := data[frameHeaderBytes:end]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, 0, false
	}
	rec = new(Record)
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, 0, false
	}
	return rec, end, true
}
