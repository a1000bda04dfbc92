package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracesResponse is the JSON answer of GET /debug/traces.
type tracesResponse struct {
	Traces []obs.TraceSummary `json:"traces"`
	Stats  obs.RecorderStats  `json:"stats"`
}

// handleTraces serves GET /debug/traces: summaries of retained traces on
// this node, filterable by ?route=, ?status=error, ?min_ms=, ?limit=.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := obs.TraceFilter{Route: q.Get("route")}
	if q.Get("status") == "error" {
		f.ErrorsOnly = true
	}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			writeAPIError(w, badRequestf("min_ms must be a non-negative integer, got %q", v))
			return
		}
		f.MinDuration = time.Duration(ms) * time.Millisecond
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeAPIError(w, badRequestf("limit must be a positive integer, got %q", v))
			return
		}
		f.Limit = n
	}
	writeJSON(w, http.StatusOK, tracesResponse{
		Traces: s.recorder.List(f),
		Stats:  s.recorder.Stats(),
	})
}

// traceResponse is the JSON answer of GET /debug/traces/{id}: a forest,
// because one distributed trace leaves separate root records on each node it
// touched (and a request plus the job it enqueued are separate local roots).
type traceResponse struct {
	TraceID string            `json:"trace_id"`
	Records []obs.TraceRecord `json:"records"`
}

// handleTrace serves GET /debug/traces/{id}. In a fleet it fans the lookup
// out to every peer (the forwarding node and the owner each retained their
// half of the trace) and merges, unless ?local=1 stops the recursion.
// ?format=chrome renders Chrome trace-event JSON for Perfetto.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	records := s.recorder.Get(id)
	if s.cluster != nil && r.URL.Query().Get("local") != "1" {
		records = append(records, s.cluster.fetchPeerTraces(r.Context(), id)...)
	}
	if len(records) == 0 {
		writeAPIError(w, notFound(fmt.Sprintf("trace %s not retained on any reachable node", id)))
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		writeChromeTrace(w, records)
		return
	}
	writeJSON(w, http.StatusOK, traceResponse{TraceID: id, Records: records})
}

// fetchPeerTraces collects the peers' retained records of one trace. Failures
// are ignored — a debug read must not amplify into fleet noise — and each
// probe is bounded so one dead peer cannot stall the response.
func (c *cluster) fetchPeerTraces(ctx context.Context, id string) []obs.TraceRecord {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	var (
		mu  sync.Mutex
		out []obs.TraceRecord
		wg  sync.WaitGroup
	)
	for peer := range c.clients {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			u := peer + "/debug/traces/" + url.PathEscape(id) + "?local=1"
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
			if err != nil {
				return
			}
			req.Header.Set(requestIDHeader, obs.RequestID(ctx))
			resp, err := c.proxy.Do(req)
			if err != nil {
				return
			}
			// The decoder below stops at the value's closing brace; a chunked
			// body has not reported EOF by then, and closing it so makes
			// net/http drop the connection instead of keeping it for the next
			// probe. Read on a little, on every path.
			defer func() {
				_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
			}()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var tr traceResponse
			if err := json.NewDecoder(io.LimitReader(resp.Body, c.maxBody)).Decode(&tr); err != nil {
				return
			}
			mu.Lock()
			out = append(out, tr.Records...)
			mu.Unlock()
		}(peer)
	}
	wg.Wait()
	return out
}

// chromeEvent is one Chrome trace-event (the JSON Array Format Perfetto and
// chrome://tracing load directly). "X" is a complete event with ts/dur in
// microseconds; "M" is process metadata naming each node's lane.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts,omitempty"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChromeTrace renders the records as Chrome trace-event JSON: one
// process lane per node, one thread lane per record, spans as complete
// events.
func writeChromeTrace(w http.ResponseWriter, records []obs.TraceRecord) {
	pids := make(map[string]int)
	var events []chromeEvent
	for i, rec := range records {
		node := rec.Node
		if node == "" {
			node = "pland"
		}
		pid, ok := pids[node]
		if !ok {
			pid = len(pids) + 1
			pids[node] = pid
			events = append(events, chromeEvent{
				Name: "process_name", Phase: "M", PID: pid, TID: 0,
				Args: map[string]any{"name": node},
			})
		}
		events = appendChromeSpans(events, rec.Root, pid, i, rec.RequestID)
	}
	writeJSON(w, http.StatusOK, map[string]any{"traceEvents": events})
}

func appendChromeSpans(events []chromeEvent, snap obs.SpanSnapshot, pid, tid int, reqID string) []chromeEvent {
	args := map[string]any{"span_id": snap.SpanID}
	if reqID != "" {
		args["request_id"] = reqID
	}
	for _, a := range snap.Attrs {
		args[a.Key] = a.Value
	}
	if snap.Error != "" {
		args["error"] = snap.Error
	}
	dur := snap.DurationUS
	if dur <= 0 {
		dur = 1 // zero-length events vanish in the viewer
	}
	events = append(events, chromeEvent{
		Name:  snap.Name,
		Phase: "X",
		TS:    snap.Start.UnixMicro(),
		Dur:   dur,
		PID:   pid,
		TID:   tid,
		Args:  args,
	})
	for _, c := range snap.Children {
		events = appendChromeSpans(events, c, pid, tid, "")
	}
	return events
}
