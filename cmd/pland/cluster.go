package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/pkg/assign"
	"repro/pkg/assign/plandclient"
)

// Fleet headers. X-Pland-Forwarded carries the sender node on a proxied
// request and is the hop guard: a request that already hopped once is served
// (or 404s) where it lands, never proxied again, so divergent liveness views
// bounce a request at most once instead of looping it. X-Pland-Key pins the
// randomly drawn session/job ID on a forwarded create; it is honored only
// together with the forwarded header, so external clients cannot choose IDs.
const (
	headerForwarded = "X-Pland-Forwarded"
	headerPinnedID  = "X-Pland-Key"
)

var (
	obsForwarded = obs.Default.CounterVec("pland_cluster_forwarded_total",
		"Requests proxied to the key's owning peer.", "peer")
	obsForwardErrors = obs.Default.CounterVec("pland_cluster_forward_errors_total",
		"Proxied requests that died at the transport (the peer is marked down).", "peer")
	obsHandoffs = obs.Default.CounterVec("pland_cluster_handoffs_total",
		"Drain-time session handoffs by outcome (sent, send_failed, received, refused).", "outcome")
	obsFleetProbes = obs.Default.CounterVec("pland_fleet_probe_total",
		"Fleet-cache probes to remote owners, by outcome (hit, miss, error).", "outcome")
)

// cluster is the ownership-aware routing layer of one pland node: the
// consistent-hash ring every node computes identically, the local liveness
// view that routes around dead peers, this node's shard of the fleet plan
// cache, and one plandclient per peer for the structured fleet calls
// (readiness probes, session handoff, cache probe/publish). Raw keyed API
// traffic is proxied with c.proxy instead so arbitrary methods and bodies
// pass through untouched.
type cluster struct {
	self    string
	ring    *shard.Ring
	health  *shard.Health
	cache   *shard.ResultCache
	clients map[string]*plandclient.Client
	proxy   *http.Client
	maxBody int64
	log     *slog.Logger
}

// newCluster wires the fleet layer from a normalized serverConfig. The caller
// starts (and stops) health probing; a fresh cluster treats every peer as
// alive until probes or forward failures say otherwise.
func newCluster(cfg serverConfig, log *slog.Logger) (*cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: -peers needs -self (this node's advertised URL)")
	}
	found := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: -self %q is not in -peers %v", cfg.Self, cfg.Peers)
	}
	ring, err := shard.New(cfg.Peers)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// Proxied calls may carry a full synchronous solve; give them the solve
	// budget plus headroom rather than a generic client timeout.
	timeout := cfg.MaxTimeout + 15*time.Second
	c := &cluster{
		self:    cfg.Self,
		ring:    ring,
		cache:   shard.NewResultCache(cfg.FleetCacheEntries),
		clients: make(map[string]*plandclient.Client, len(cfg.Peers)),
		proxy:   &http.Client{Timeout: timeout},
		maxBody: cfg.MaxBodyBytes,
		log:     log,
	}
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			continue
		}
		c.clients[p] = plandclient.New(p, plandclient.WithHTTPClient(&http.Client{Timeout: timeout}))
	}
	c.health = shard.NewHealth(shard.HealthConfig{
		Self:      cfg.Self,
		Peers:     cfg.Peers,
		Probe:     c.probe,
		Interval:  cfg.HealthInterval,
		FailAfter: cfg.HealthFailAfter,
	})
	return c, nil
}

// probe is one readiness check: a raw GET /readyz round trip, deliberately
// not through plandclient so the retry layer cannot stretch one probe across
// most of a probe interval. Draining peers answer 503 and so read as down,
// which steers forwarded traffic away before their listener closes.
func (c *cluster) probe(ctx context.Context, peer string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/readyz", nil)
	if err != nil {
		return err
	}
	// Probes originate here, not from a client request, so they mint their
	// own correlation identity — without it the peer's request log has no way
	// to say which prober produced a line.
	req.Header.Set(requestIDHeader, obs.NewRequestID())
	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	resp, err := c.proxy.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// forwardToOwner proxies a request to the ring owner of key — the {id} of a
// keyed route, or the ID a create was just given, which then travels as pin —
// when that is another node. It reports true when the request was fully
// handled here (proxied, or failed); false means the caller serves it locally
// — because the node is not clustered, owns the key, the request already
// hopped once, or rerouting around a dead owner landed back on this node.
func (s *server) forwardToOwner(w http.ResponseWriter, r *http.Request, key, pin string) bool {
	c := s.cluster
	if c == nil || r.Header.Get(headerForwarded) != "" {
		return false
	}
	owner, ok := c.ring.Owner(key, c.health.Alive)
	if !ok || owner == c.self {
		return false
	}
	return c.forward(w, r, key, owner, pin)
}

// forward proxies the request to target, rerouting around peers that fail at
// the transport (each failure marks the peer down, so the ring walk lands on
// the next successor). It returns false when rerouting lands on this node —
// the body has been restored and the caller should serve locally.
func (c *cluster) forward(w http.ResponseWriter, r *http.Request, key, target, pin string) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.maxBody))
	if err != nil {
		writeAPIError(w, badRequestf("reading request: %v", err))
		return true
	}
	for {
		err := c.forwardOnce(w, r, body, target, pin)
		if err == nil {
			return true
		}
		c.health.MarkDown(target)
		obsForwardErrors.With(target).Inc()
		c.log.Warn("peer unreachable; rerouting", "peer", target, "key", key, "error", err)
		next, ok := c.ring.Owner(key, c.health.Alive)
		if !ok || next == target {
			writeAPIError(w, newAPIError(http.StatusBadGateway, plandclient.CodePeerUnreachable,
				fmt.Sprintf("owner %s unreachable and no live successor", target), nil))
			return true
		}
		if next == c.self {
			r.Body = io.NopCloser(bytes.NewReader(body))
			return false
		}
		target = next
	}
}

// forwardOnce is one proxy round trip. It writes the response only after the
// exchange succeeded, so a transport failure leaves the ResponseWriter
// untouched and the caller free to reroute.
func (c *cluster) forwardOnce(w http.ResponseWriter, r *http.Request, body []byte, target, pin string) error {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	// The hop is a child span of the request, and its traceparent rides the
	// proxied request, so the owner's root span joins this trace.
	ctx, fsp := obs.StartSpan(r.Context(), "forward")
	fsp.SetAttr("peer", target)
	defer fsp.End()
	req, err := http.NewRequestWithContext(ctx, r.Method, target+r.URL.RequestURI(), rd)
	if err != nil {
		fsp.SetError(err.Error())
		return err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	// Propagate the correlation ID withObs already stamped on the response,
	// so one request keeps one ID across every hop's logs.
	if rid := w.Header().Get(requestIDHeader); rid != "" {
		req.Header.Set(requestIDHeader, rid)
	}
	if tp := fsp.TraceContext().Traceparent(); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	req.Header.Set(headerForwarded, c.self)
	if pin != "" {
		req.Header.Set(headerPinnedID, pin)
	}
	resp, err := c.proxy.Do(req)
	if err != nil {
		fsp.SetError(err.Error())
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	obsForwarded.With(target).Inc()
	return nil
}

// pinnedID returns the creation ID a forwarded create pinned, if any. The
// pin is honored only on requests that carry the forwarded header: external
// clients cannot choose their own IDs.
func pinnedID(r *http.Request) string {
	if r.Header.Get(headerForwarded) == "" {
		return ""
	}
	id := r.Header.Get(headerPinnedID)
	if len(id) > 64 || strings.ContainsAny(id, "/%\\") {
		return ""
	}
	return id
}

// newJobID mirrors the job manager's 16-byte random hex IDs: the ID must
// exist before enqueue so placement can route the create to the ID's owner.
func newJobID() string { return randomHex(16) }

// planFleet is handlePlan's solve path under clustering: the ring owner of
// the instance's canonical key holds the one fleet-wide cache shard for it, so
// the probe goes there before this node spends a solve, and a solve is
// published back there afterwards. What travels is the planner's canonical
// plan (assign.Planner.ExportPlan): a hit is that plan imported into this
// node's planner — which checks it against this request's own sizes before
// believing it — followed by the ordinary cache hit, relabelled for this
// request's input IDs like any other. Cold solves always run locally — only
// cache traffic crosses the wire — and every fleet failure, a cached value
// that does not import included, degrades to the single-node path.
func (s *server) planFleet(ctx context.Context, body plandclient.PlanRequest) (*plandclient.PlanResult, *apiError) {
	c := s.cluster
	if c == nil || body.NoCache {
		return s.runPlan(ctx, body)
	}
	opts, aerr := s.planOptions(body)
	if aerr != nil {
		return nil, aerr
	}
	// NoCache asks for the key alone: the planner's cache is not read, so no
	// plan is encoded only to be dropped.
	key, _, err := s.planner.ExportPlan(append(opts, assign.NoCache())...)
	if err != nil {
		return nil, planError(err)
	}
	owner, ok := c.ring.Owner(key, c.health.Alive)
	if !ok {
		return s.runPlan(ctx, body)
	}
	var cached []byte
	probeFailed := false
	if owner == c.self {
		cached, _ = c.cache.Get(key)
	} else {
		cctx, csp := obs.StartSpan(ctx, "fleet_cache_get")
		csp.SetAttr("peer", owner)
		cached, err = c.clients[owner].FleetCacheGet(cctx, key)
		switch {
		case err != nil:
			csp.SetError(err.Error())
			probeFailed = true
			obsFleetProbes.With("error").Inc()
			if plandclient.IsCode(err, plandclient.CodeTransport) {
				c.health.MarkDown(owner)
			}
		case cached == nil:
			obsFleetProbes.With("miss").Inc()
		}
		csp.End()
	}
	imported := false
	if cached != nil {
		if err := s.planner.ImportPlan(cached, opts...); err != nil {
			obsFleetProbes.With("error").Inc()
			c.log.Warn("fleet cache value refused; solving locally", "peer", owner, "key", key, "error", err)
		} else {
			imported = true
			if owner != c.self {
				obsFleetProbes.With("hit").Inc()
			}
		}
	}
	resp, aerr := s.runPlan(ctx, body)
	if aerr != nil {
		return nil, aerr
	}
	resp.FleetCacheHit = imported && resp.CacheHit
	if imported || probeFailed {
		return resp, nil
	}
	if _, plan, err := s.planner.ExportPlan(opts...); err == nil && plan != nil {
		if owner == c.self {
			c.cache.Put(key, plan)
		} else {
			// Capture the request's trace identity now: the publish outlives
			// the request context but should still correlate on the peer.
			tc, _ := obs.TraceContextFrom(ctx)
			go c.publish(owner, key, plan, obs.RequestID(ctx), tc)
		}
	}
	return resp, nil
}

// publish ships a freshly solved result to the key owner's cache shard,
// detached from the request that solved it but still carrying its request ID
// and trace context so the peer's logs correlate back to the solving request.
func (c *cluster) publish(owner, key string, raw []byte, rid string, tc obs.TraceContext) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if rid == "" {
		rid = obs.NewRequestID()
	}
	ctx = obs.WithRequestID(ctx, rid)
	ctx = obs.WithTraceContext(ctx, tc)
	if err := c.clients[owner].FleetCachePut(ctx, key, raw); err != nil {
		c.log.Warn("fleet cache publish failed", "peer", owner, "error", err, "request_id", rid)
	}
}

// getFleetCache and putFleetCache serve /internal/cache/{key}: this node's
// shard of the fleet plan cache. Values are opaque JSON documents here — it is
// the planner importing one that decides whether to believe it — and
// ownership is the caller's concern (peers only probe keys this node owns).
func (s *server) getFleetCache(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeAPIError(w, notFound("not clustered"))
		return
	}
	raw, ok := s.cluster.cache.Get(r.PathValue("key"))
	if !ok {
		writeAPIError(w, notFound("cache miss"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

func (s *server) putFleetCache(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeAPIError(w, notFound("not clustered"))
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeAPIError(w, badRequestf("reading cache value: %v", err))
		return
	}
	if !json.Valid(raw) {
		writeAPIError(w, badRequestf("cache value is not valid JSON"))
		return
	}
	s.cluster.cache.Put(r.PathValue("key"), raw)
	w.WriteHeader(http.StatusNoContent)
}

// handleHandoff serves POST /internal/handoff: a draining peer ships one
// live session here. The state's fingerprint is recomputed and checked
// against the sender's stamp before anything is installed — a corrupt
// transfer is refused, never served — and a durable receiver immediately
// re-anchors the session in its own WAL. Handoffs are accepted even past
// -max-sessions: refusing would drop live client state to enforce a soft
// capacity bound.
func (s *server) handleHandoff(w http.ResponseWriter, r *http.Request) {
	var body plandclient.HandoffRequest
	if !s.decodeBody(w, r, &body) {
		return
	}
	if body.ID == "" || body.State == nil {
		writeAPIError(w, badRequestf("handoff needs an id and a state"))
		return
	}
	want, err := strconv.ParseUint(body.Fingerprint, 16, 64)
	if err != nil {
		writeAPIError(w, badRequestf("fingerprint %q is not hex: %v", body.Fingerprint, err))
		return
	}
	if got := body.State.Fingerprint(); got != want {
		obsHandoffs.With("refused").Inc()
		writeAPIError(w, newAPIError(http.StatusUnprocessableEntity, plandclient.CodeUnprocessable,
			fmt.Sprintf("handoff fingerprint mismatch: sender stamped %016x, state is %016x", want, got), nil))
		return
	}
	if s.holdsSession(body.ID) {
		obsHandoffs.With("refused").Inc()
		writeAPIError(w, newAPIError(http.StatusConflict, plandclient.CodeConflict,
			fmt.Sprintf("session %s already lives here", body.ID), nil))
		return
	}
	entry, err := s.installSession(body.ID, body.State, nil, body.Meta)
	if err != nil {
		obsHandoffs.With("refused").Inc()
		writeAPIError(w, newAPIError(http.StatusUnprocessableEntity, plandclient.CodeUnprocessable,
			fmt.Sprintf("restoring handed-off session: %v", err), nil))
		return
	}
	if s.wal != nil {
		if err := entry.sess.WriteSnapshot(); err != nil {
			s.log.Warn("handed-off session not yet journaled", "session", body.ID, "error", err)
		}
	}
	obsHandoffs.With("received").Inc()
	s.log.Info("session handed off here", "session", body.ID, "inputs", entry.sess.Len())
	writeJSON(w, http.StatusCreated, plandclient.HandoffResult{
		ID:          body.ID,
		Fingerprint: fmt.Sprintf("%016x", want),
		Inputs:      entry.sess.Len(),
	})
}

// handoffSessions ships every live session to its ring successor during a
// graceful drain. A session whose handoff fails stays registered — the final
// WAL checkpoint keeps it, so a later restart of this node still recovers
// it; only acknowledged transfers are closed and marked closed in the WAL so
// the restart cannot resurrect a session now served elsewhere.
func (s *server) handoffSessions(ctx context.Context) {
	c := s.cluster
	if c == nil {
		return
	}
	for _, e := range s.liveSessions() {
		target, ok := c.ring.Successor(e.id, c.self, c.health.Alive)
		if !ok {
			obsHandoffs.With("send_failed").Inc()
			s.log.Warn("no live successor; session stays in the WAL", "session", e.id)
			continue
		}
		st := e.sess.State()
		if st == nil {
			obsHandoffs.With("send_failed").Inc()
			s.log.Warn("session state unavailable; not handed off", "session", e.id)
			continue
		}
		req := plandclient.HandoffRequest{
			ID:          e.id,
			State:       st,
			Fingerprint: fmt.Sprintf("%016x", st.Fingerprint()),
			Meta:        e.meta,
		}
		if _, err := c.clients[target].Handoff(ctx, req); err != nil {
			obsHandoffs.With("send_failed").Inc()
			s.log.Warn("handoff failed; session stays in the WAL",
				"session", e.id, "peer", target, "error", err)
			continue
		}
		obsHandoffs.With("sent").Inc()
		s.log.Info("session handed off", "session", e.id, "peer", target, "inputs", e.sess.Len())
		s.sessMu.Lock()
		delete(s.sessions, e.id)
		s.sessMu.Unlock()
		s.cancelRebuild(e)
		e.sess.Close()
		s.journalSessionClose(ctx, e.id)
	}
}

// handleReadyz serves GET /readyz: readiness, as opposed to /healthz's
// liveness. It answers 503 both before boot recovery finished and from the
// moment a drain starts, which is what peers probe and what steers forwarded
// traffic away from a node that is about to stop serving.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case !s.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "starting")
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	default:
		fmt.Fprintln(w, "ok")
	}
}

// startDrain flips readiness off; probes see 503 from here on while the
// listener keeps serving through the drain grace and handoff.
func (s *server) startDrain() { s.draining.Store(true) }

// clusterStats is the cluster block of GET /v1/stats.
type clusterStats struct {
	Self              string          `json:"self"`
	Nodes             []string        `json:"nodes"`
	Peers             map[string]bool `json:"peers"`
	FleetCacheEntries int             `json:"fleet_cache_entries"`
}

func (c *cluster) stats() *clusterStats {
	return &clusterStats{
		Self:              c.self,
		Nodes:             c.ring.Nodes(),
		Peers:             c.health.Snapshot(),
		FleetCacheEntries: c.cache.Len(),
	}
}
