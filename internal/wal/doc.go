// Package wal is pland's durability spine: a segmented, CRC32-framed
// append-only log of session deltas, full-state session snapshots, and v2
// job submissions, with checkpoint compaction and torn-tail-tolerant
// recovery. A pland restart replays it to the exact pre-crash state —
// fingerprint-checked and audited before the server takes traffic.
//
// # Record framing
//
// Every segment file starts with the 8-byte magic "PLWAL001" and then holds
// back-to-back frames:
//
//	[4-byte little-endian payload length]
//	[4-byte little-endian CRC32 (IEEE) of the payload]
//	[payload: one JSON-encoded Record]
//
// Appends go through one buffered writer under one mutex, so frames are
// never interleaved. A crash can still leave a torn frame at the tail — a
// partial write of the last append. Recovery reads frames until the first
// one whose length is implausible, whose bytes are short, or whose CRC
// disagrees, and stops the entire replay there: everything before the tear
// is intact by CRC, everything after it is unordered garbage by definition.
// Torn bytes are counted and reported, never silently skipped.
//
// # Record kinds
//
// Five kinds flow through one Record envelope (unused fields are omitted):
//
//   - session snapshot: the full stream.State of one session, stamped with
//     its fingerprint; the state carries the capacity and the tuning too.
//     Older builds also wrote an owner blob beside it, which replay ignores.
//     A snapshot RESETS the session during replay: later deltas apply on top
//     of the latest snapshot seen.
//   - session delta: one applied stream.DeltaRecord. Deltas are replay-
//     deterministic, which is why they may be logged instead of state.
//   - session close: the session was deleted by a client; replay drops it.
//     Shutdown drain deliberately writes no close records, so draining
//     preserves sessions across restart while DELETE forgets them.
//   - job submit: a v2 job entered the queue (ID, kind, raw request body).
//   - job done: the job reached a terminal state that must not be re-run.
//     Jobs failed by shutdown drain get no done record, so they re-enqueue.
//
// # Log order is apply order
//
// Correctness rests on one invariant: records append in the order their
// effects applied. Session hooks run under the session lock (stream.Journal
// contract) and the job hooks under the jobs-manager lock, so the log
// linearizes exactly as the state machines did. Replay processes records in
// log order with latest-snapshot-wins per session and submit/done dedup per
// job ID.
//
// # Checkpoints and compaction
//
// A checkpoint bounds both recovery replay and disk growth. The owner calls
// BeginCheckpoint — which seals the current segment and opens a fresh
// barrier segment — then re-journals the complete live state into it (every
// live session's WriteSnapshot, every unfinished journaled job's submit
// record), then EndCheckpoint, which fsyncs and deletes every segment below
// the barrier: they are fully covered by what the barrier segment now
// holds. Snapshots are written under each session's own lock through its
// normal journal hook, so deltas racing the checkpoint land after their
// session's snapshot and replay correctly. A crash between Begin and End
// merely leaves the old segments in place — recovery is then union of old
// and new, which is correct, just bigger.
//
// # Fsync policy
//
// SyncAlways fsyncs every append before it returns (every acked write
// survives power loss); SyncInterval flushes on a timer (default 100ms —
// bounded loss window, near-zero append overhead); SyncNever leaves
// flushing to the OS. Segment rolls and checkpoints fsync under every
// policy.
package wal
