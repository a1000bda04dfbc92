package plandclient

// This file is the fleet-facing surface: the calls pland nodes make to each
// other. Readiness probes feed each node's health view of its peers; session
// handoff ships a draining node's live sessions to their ring successors.
// External clients rarely call these, but they are part of the wire contract
// like everything else here.

import (
	"context"
	"encoding/json"
	"net/http"

	"repro/pkg/assign"
)

// Ready probes GET /readyz: nil when the node is accepting traffic, an
// *APIError otherwise — 503 both while a boot's WAL recovery is still
// running and from the moment a drain starts, which is what steers the
// fleet's forwarded traffic away before a draining node's listener closes.
// (Contrast /healthz, which stays 200 through a drain: liveness, not
// readiness.)
func (c *Client) Ready(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodGet, "/readyz", nil, nil)
	return err
}

// HandoffRequest is the body of POST /internal/handoff: one live session,
// serialized exactly as the WAL journals it, shipped by a draining node to
// the session's ring successor.
type HandoffRequest struct {
	// ID is the session's fleet-wide identifier; ownership follows it.
	ID string `json:"id"`
	// State is the full serializable session state (see assign.SessionState).
	State *assign.SessionState `json:"state"`
	// Fingerprint is the hex form of State's fingerprint, computed by the
	// sender. The receiver recomputes it from the restored session and
	// refuses the handoff on mismatch, so a corrupt transfer can never be
	// served.
	Fingerprint string `json:"fingerprint"`
	// Meta is sent by builds before this one; accepted and ignored. The
	// State carries everything a session needs.
	Meta json.RawMessage `json:"meta,omitempty"`
}

// HandoffResult is the receiver's acknowledgement: the restored session's
// recomputed fingerprint (equal to the request's by construction) and its
// live input count.
type HandoffResult struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	Inputs      int    `json:"inputs"`
	// RequestID and TraceID identify the handoff call: the server's
	// X-Request-ID and the traceparent trace ID.
	RequestID string `json:"-"`
	TraceID   string `json:"-"`
}

// Handoff ships one session to this client's node via POST /internal/handoff.
// The receiving node verifies the fingerprint, restores the session
// (journaling it into its own WAL when durable), and serves it from then on.
func (c *Client) Handoff(ctx context.Context, req HandoffRequest) (*HandoffResult, error) {
	return call[HandoffResult](ctx, c, http.MethodPost, "/internal/handoff", req)
}
