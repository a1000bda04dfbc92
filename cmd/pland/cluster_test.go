package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/pkg/assign"
	"repro/pkg/assign/plandclient"
)

// ringOwner is the key's owner on s's ring with every node alive.
func ringOwner(s *server, key string) string {
	owner, _ := s.cluster.ring.Owner(key, nil)
	return owner
}

// newTestCluster boots n in-process pland nodes wired into one ring. Health
// probing is not started: every peer reads alive, which is the steady state
// the routing tests want (liveness transitions are internal/shard's tests).
func newTestCluster(t *testing.T, n int) ([]*server, []*httptest.Server) {
	t.Helper()
	servers := make([]*server, n)
	httpSrvs := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range servers {
		servers[i] = newServer(assign.NewPlanner(assign.PlannerConfig{}), serverConfig{})
		httpSrvs[i] = httptest.NewServer(servers[i])
		urls[i] = httpSrvs[i].URL
	}
	t.Cleanup(func() {
		for i := range servers {
			httpSrvs[i].Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			servers[i].Close(ctx)
			cancel()
		}
	})
	for i, s := range servers {
		cfg := s.cfg
		cfg.Self = urls[i]
		cfg.Peers = urls
		cl, err := newCluster(cfg, s.log)
		if err != nil {
			t.Fatalf("newCluster(%d): %v", i, err)
		}
		s.cluster = cl
	}
	return servers, httpSrvs
}

// nodeIndex maps an advertised URL back to its index in the test fleet.
func nodeIndex(t *testing.T, urls []*httptest.Server, node string) int {
	t.Helper()
	for i, u := range urls {
		if u.URL == node {
			return i
		}
	}
	t.Fatalf("node %q is not in the fleet", node)
	return -1
}

// TestClusterSessionPlacementAndRouting: a create through any node lands on
// the ID's ring owner, every node serves GETs for it (forwarding when it is
// not the owner), and a DELETE through a non-owner tears it down fleet-wide.
func TestClusterSessionPlacementAndRouting(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()
	c0 := plandclient.New(httpSrvs[0].URL)

	sess, err := c0.CreateSession(ctx, plandclient.SessionCreateRequest{Capacity: 10, Sizes: []assign.Size{3, 4, 5}})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if sess.Node == "" || sess.Fingerprint == "" {
		t.Fatalf("clustered create missing node/fingerprint: %+v", sess)
	}
	wantOwner := ringOwner(servers[0], sess.ID)
	if sess.Node != wantOwner {
		t.Fatalf("session placed on %s, ring owner is %s", sess.Node, wantOwner)
	}
	ownerIdx := nodeIndex(t, httpSrvs, sess.Node)
	servers[ownerIdx].sessMu.Lock()
	_, present := servers[ownerIdx].sessions[sess.ID]
	servers[ownerIdx].sessMu.Unlock()
	if !present {
		t.Fatalf("session %s not registered on its owner %s", sess.ID, sess.Node)
	}

	// Every node answers a GET for it, with an identical fingerprint.
	for i, hs := range httpSrvs {
		got, err := plandclient.New(hs.URL).GetSession(ctx, sess.ID)
		if err != nil {
			t.Fatalf("GetSession via node %d: %v", i, err)
		}
		if got.Node != sess.Node || got.Fingerprint != sess.Fingerprint {
			t.Fatalf("node %d sees node=%s fp=%s, want node=%s fp=%s",
				i, got.Node, got.Fingerprint, sess.Node, sess.Fingerprint)
		}
	}

	// Delete through a node that is NOT the owner; the forward must apply it.
	otherIdx := (ownerIdx + 1) % len(httpSrvs)
	if _, err := plandclient.New(httpSrvs[otherIdx].URL).DeleteSession(ctx, sess.ID); err != nil {
		t.Fatalf("DeleteSession via non-owner: %v", err)
	}
	if _, err := c0.GetSession(ctx, sess.ID); !plandclient.IsCode(err, plandclient.CodeNotFound) {
		t.Fatalf("deleted session still reachable: %v", err)
	}
}

// TestClusterJobRouting: a v2 job submitted through any node runs on its
// ID's owner and is pollable through every node.
func TestClusterJobRouting(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()

	job, err := plandclient.New(httpSrvs[0].URL).SubmitPlan(ctx, plandclient.PlanRequest{
		Problem: "A2A", Capacity: 10, Sizes: []assign.Size{3, 3, 2, 2, 4, 1},
	})
	if err != nil {
		t.Fatalf("SubmitPlan: %v", err)
	}
	owner := ringOwner(servers[0], job.ID)
	ownerIdx := nodeIndex(t, httpSrvs, owner)
	if _, err := servers[ownerIdx].jobs.Get(job.ID); err != nil {
		t.Fatalf("job %s not on its owner %s: %v", job.ID, owner, err)
	}
	for i, hs := range httpSrvs {
		final, err := plandclient.New(hs.URL).WaitJob(ctx, job.ID, 50*time.Millisecond)
		if err != nil {
			t.Fatalf("WaitJob via node %d: %v", i, err)
		}
		if final.State != plandclient.StateSucceeded {
			t.Fatalf("job ended %s via node %d", final.State, i)
		}
	}
}

// TestClusterHandoff: a draining node ships its sessions to their ring
// successor; the receiver serves them with an identical fingerprint and the
// rest of the fleet routes to the new home.
func TestClusterHandoff(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()

	sess, err := plandclient.New(httpSrvs[0].URL).CreateSession(ctx, plandclient.SessionCreateRequest{
		Capacity: 20, Sizes: []assign.Size{5, 3, 7, 2},
	})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	ownerIdx := nodeIndex(t, httpSrvs, sess.Node)
	ownerSrv := servers[ownerIdx]
	wantSuccessor, ok := ownerSrv.cluster.ring.Successor(sess.ID, ownerSrv.cluster.self, ownerSrv.cluster.health.Alive)
	if !ok {
		t.Fatal("no successor in a 3-node ring")
	}

	ownerSrv.startDrain()
	ownerSrv.handoffSessions(ctx)
	// In production the drain grace exists so peers' readiness probes see the
	// 503 and mark the node down before it stops serving; the tests don't run
	// probe loops, so apply that transition by hand.
	for _, s := range servers {
		s.cluster.health.MarkDown(sess.Node)
	}

	ownerSrv.sessMu.Lock()
	left := len(ownerSrv.sessions)
	ownerSrv.sessMu.Unlock()
	if left != 0 {
		t.Fatalf("%d sessions still on the drained node", left)
	}
	succIdx := nodeIndex(t, httpSrvs, wantSuccessor)
	servers[succIdx].sessMu.Lock()
	_, present := servers[succIdx].sessions[sess.ID]
	servers[succIdx].sessMu.Unlock()
	if !present {
		t.Fatalf("session %s did not land on successor %s", sess.ID, wantSuccessor)
	}

	// A third node still reaches it; the fingerprint survived the transfer.
	thirdIdx := 3 - ownerIdx - succIdx
	got, err := plandclient.New(httpSrvs[thirdIdx].URL).GetSession(ctx, sess.ID)
	if err != nil {
		t.Fatalf("GetSession after handoff: %v", err)
	}
	if got.Fingerprint != sess.Fingerprint {
		t.Fatalf("fingerprint changed across handoff: %s -> %s", sess.Fingerprint, got.Fingerprint)
	}
	if got.Node != wantSuccessor {
		t.Fatalf("session served by %s, want successor %s", got.Node, wantSuccessor)
	}

	// The handed-off session is live, not a read-only copy.
	if _, err := plandclient.New(httpSrvs[succIdx].URL).UpdateSession(ctx, sess.ID, plandclient.AddDelta(4)); err != nil {
		t.Fatalf("UpdateSession on successor: %v", err)
	}
}

// TestHandoffFingerprintVerification: the receiver recomputes the state
// fingerprint and refuses a mismatched transfer; a duplicate ID conflicts.
func TestHandoffFingerprintVerification(t *testing.T) {
	s := newServer(assign.NewPlanner(assign.PlannerConfig{}), serverConfig{})
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	ctx := context.Background()

	donor, err := s.planner.NewSession(ctx, assign.Capacity(10), assign.A2A([]assign.Size{3, 4}))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer donor.Close()
	st := donor.State()

	post := func(id, fp string) *http.Response {
		t.Helper()
		body, err := json.Marshal(plandclient.HandoffRequest{ID: id, State: st, Fingerprint: fp})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/internal/handoff", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Wrong fingerprint: refused, nothing installed.
	resp := post("s-bad", "deadbeef")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched fingerprint accepted: HTTP %d", resp.StatusCode)
	}
	if code := decodeErrorEnvelope(t, resp); code != plandclient.CodeUnprocessable {
		t.Fatalf("error code = %s", code)
	}

	// Correct fingerprint: installed and served.
	good := fmt.Sprintf("%016x", st.Fingerprint())
	resp = post("s-handoff", good)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("valid handoff refused: HTTP %d", resp.StatusCode)
	}
	var out plandclient.HandoffResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Fingerprint != good || out.Inputs != 2 {
		t.Fatalf("handoff ack = %+v", out)
	}

	// Same ID again: conflict, the live session is not clobbered.
	resp = post("s-handoff", good)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate handoff got HTTP %d, want 409", resp.StatusCode)
	}
}

// TestReadyzLifecycle: /readyz is 200 only between boot-recovery completion
// and the start of a drain; /healthz stays 200 throughout.
func TestReadyzLifecycle(t *testing.T) {
	s := newServer(assign.NewPlanner(assign.PlannerConfig{}), serverConfig{})
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("fresh server /readyz = %d", got)
	}
	s.ready.Store(false) // as during boot recovery
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("recovering server /readyz = %d, want 503", got)
	}
	s.ready.Store(true)
	s.startDrain()
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("draining server /readyz = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("draining server /healthz = %d, want 200 (liveness, not readiness)", got)
	}
}

// fleetKeyOwner returns the fleet key of the instance and the index of the
// node that owns it.
func fleetKeyOwner(t *testing.T, servers []*server, httpSrvs []*httptest.Server, req plandclient.PlanRequest) (string, int) {
	t.Helper()
	opts, aerr := servers[0].planOptions(req)
	if aerr != nil {
		t.Fatalf("planOptions: %v", aerr)
	}
	key, err := assign.Key(opts...)
	if err != nil || key == "" {
		t.Fatalf("Key = %q, %v", key, err)
	}
	return key, nodeIndex(t, httpSrvs, ringOwner(servers[0], key))
}

// validateFor checks a served plan against the sets of the request it was
// served for: the paper's contract is about the requester's inputs, whoever
// solved the instance first.
func validateFor(t *testing.T, req plandclient.PlanRequest, got *plandclient.PlanResult) {
	t.Helper()
	var err error
	if req.Problem == "A2A" {
		err = got.Schema.ValidateA2A(assign.MustNewInputSet(req.Sizes))
	} else {
		err = got.Schema.ValidateX2Y(assign.MustNewInputSet(req.XSizes), assign.MustNewInputSet(req.YSizes))
	}
	if err != nil {
		t.Fatalf("schema served for %+v is not valid for it: %v", req, err)
	}
}

// misses sums the fleet's planner cache misses: the solves it ran.
func misses(servers []*server) uint64 {
	var n uint64
	for _, s := range servers {
		n += s.planner.Stats().CacheMisses
	}
	return n
}

// TestFleetPlanCache: one solve serves the whole fleet. A plan request goes
// to the owner of its canonical key, which solves it once and serves every
// later isomorphic request — through any node — from its planner's cache,
// relabelled for the requester's own input order. A no_cache request has no
// key and is solved where it lands.
func TestFleetPlanCache(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()

	req := plandclient.PlanRequest{Problem: "A2A", Capacity: 10, Sizes: []assign.Size{3, 3, 2, 2, 4, 1}}
	_, ownerIdx := fleetKeyOwner(t, servers, httpSrvs, req)
	solverIdx := (ownerIdx + 1) % len(httpSrvs) // deliberately not the owner

	first, err := plandclient.New(httpSrvs[solverIdx].URL).Plan(ctx, req)
	if err != nil {
		t.Fatalf("Plan on non-owner: %v", err)
	}
	if first.CacheHit || first.FleetCacheHit {
		t.Fatalf("first solve reads cache_hit %v, fleet_cache_hit %v", first.CacheHit, first.FleetCacheHit)
	}
	if n := servers[ownerIdx].planner.Stats().CacheMisses; n != 1 || misses(servers) != 1 {
		t.Fatalf("the owner solved %d times, the fleet %d; want the one solve on the owner", n, misses(servers))
	}

	// An isomorphic instance (same multiset, different order) through the
	// owner is a plain hit, and through either other node a fleet hit.
	iso := req
	iso.Sizes = []assign.Size{1, 4, 2, 2, 3, 3}
	for _, idx := range []int{ownerIdx, solverIdx, (ownerIdx + 2) % len(httpSrvs)} {
		got, err := plandclient.New(httpSrvs[idx].URL).Plan(ctx, iso)
		if err != nil {
			t.Fatalf("Plan via node %d: %v", idx, err)
		}
		if !got.CacheHit || got.FleetCacheHit != (idx != ownerIdx) {
			t.Fatalf("node %d (owner %d) reads cache_hit %v, fleet_cache_hit %v", idx, ownerIdx, got.CacheHit, got.FleetCacheHit)
		}
		if got.Reducers != first.Reducers || got.Communication != first.Communication {
			t.Fatalf("fleet cache hit diverged: %+v vs %+v", got, first)
		}
		validateFor(t, iso, got)
	}

	// NoCache opts out of the fleet layer entirely: solved on the entry node.
	nc := req
	nc.NoCache = true
	got, err := plandclient.New(httpSrvs[solverIdx].URL).Plan(ctx, nc)
	if err != nil {
		t.Fatalf("Plan with NoCache: %v", err)
	}
	if got.CacheHit || got.FleetCacheHit {
		t.Fatal("no_cache request served from the fleet cache")
	}
	if n := servers[solverIdx].planner.Stats().CacheMisses; n != 1 {
		t.Fatalf("the entry node solved the no_cache request %d times, want 1", n)
	}
}

// TestFleetHitsAreValidForTheRequester: the owner's cache is keyed on the
// canonical instance, so what it serves must be relabelled for each
// requester. Forty random A2A instances are solved through one node and asked
// for again, shuffled, through another; an X2Y instance comes back with its
// sides swapped and each side shuffled. Every answer is a fleet hit and every
// answer satisfies the constraints of the request it answers.
func TestFleetHitsAreValidForTheRequester(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(19))

	// served solves req through a node that does not own it and returns what
	// a third node then serves for the isomorphic again.
	served := func(req, again plandclient.PlanRequest) *plandclient.PlanResult {
		t.Helper()
		_, ownerIdx := fleetKeyOwner(t, servers, httpSrvs, req)
		first, err := plandclient.New(httpSrvs[(ownerIdx+1)%3].URL).Plan(ctx, req)
		if err != nil {
			t.Fatalf("Plan %+v: %v", req, err)
		}
		validateFor(t, req, first)
		got, err := plandclient.New(httpSrvs[(ownerIdx+2)%3].URL).Plan(ctx, again)
		if err != nil {
			t.Fatalf("Plan %+v: %v", again, err)
		}
		if !got.FleetCacheHit {
			t.Fatalf("%+v after %+v was not a fleet hit", again, req)
		}
		if got.Reducers != first.Reducers || got.Communication != first.Communication {
			t.Fatalf("fleet hit reports %d reducers / %d communication, the solve %d / %d",
				got.Reducers, got.Communication, first.Reducers, first.Communication)
		}
		validateFor(t, again, got)
		return got
	}

	shuffled := func(sizes []assign.Size) []assign.Size {
		out := append([]assign.Size(nil), sizes...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	for i := 0; i < 40; i++ {
		sizes := make([]assign.Size, 6+rng.Intn(10))
		for j := range sizes {
			sizes[j] = assign.Size(1 + rng.Intn(9))
		}
		req := plandclient.PlanRequest{Problem: "A2A", Capacity: 20, Sizes: sizes, TimeoutMS: -1}
		again := req
		again.Sizes = shuffled(sizes)
		served(req, again)
	}

	req := plandclient.PlanRequest{Problem: "X2Y", Capacity: 12, TimeoutMS: -1,
		XSizes: []assign.Size{7, 2, 1, 5, 3}, YSizes: []assign.Size{1, 2, 4, 1, 3, 2, 5}}
	mirrored := req
	mirrored.XSizes, mirrored.YSizes = shuffled(req.YSizes), shuffled(req.XSizes)
	served(req, mirrored)
}

// TestFleetHitMeansAPlanFromTheWire: fleet_cache_hit marks a cache hit the
// key's owner served for another node. The owner's repeat of an instance is a
// plain cache hit; a repeat through any other node is a fleet hit, even on
// the node whose request made the owner solve it.
func TestFleetHitMeansAPlanFromTheWire(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()
	for i, sizes := range [][]assign.Size{{3, 3, 2, 2, 4, 1}, {5, 1, 4, 2, 2, 3, 1}} {
		req := plandclient.PlanRequest{Problem: "A2A", Capacity: 12, Sizes: sizes}
		_, ownerIdx := fleetKeyOwner(t, servers, httpSrvs, req)
		solverIdx := (ownerIdx + i) % len(httpSrvs) // the owner, then a node that is not
		first, err := plandclient.New(httpSrvs[solverIdx].URL).Plan(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if first.CacheHit || first.FleetCacheHit {
			t.Fatalf("instance %d: the first solve reads %+v", i, first)
		}
		for idx := range httpSrvs {
			again, err := plandclient.New(httpSrvs[idx].URL).Plan(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !again.CacheHit || again.FleetCacheHit != (idx != ownerIdx) {
				t.Fatalf("instance %d: node %d (owner %d, first asked through %d) repeats it as cache_hit %v, fleet_cache_hit %v",
					i, idx, ownerIdx, solverIdx, again.CacheHit, again.FleetCacheHit)
			}
		}
	}
}

// TestFleetSolvesEachInstanceOnce: isomorphic requests sent concurrently
// through every node meet at the key's owner, whose planner solves the
// instance once and serves the rest from that solve, each relabelled for its
// own request.
func TestFleetSolvesEachInstanceOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	shuffled := func(sizes []assign.Size) []assign.Size {
		out := append([]assign.Size(nil), sizes...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	a2a := plandclient.PlanRequest{Problem: "A2A", Capacity: 20, TimeoutMS: -1,
		Sizes: []assign.Size{9, 4, 7, 2, 6, 3, 5, 8, 1, 6}}
	x2y := plandclient.PlanRequest{Problem: "X2Y", Capacity: 12, TimeoutMS: -1,
		XSizes: []assign.Size{7, 2, 1, 5, 3}, YSizes: []assign.Size{1, 2, 4, 1, 3, 2, 5}}
	for _, base := range []plandclient.PlanRequest{a2a, x2y} {
		t.Run(base.Problem, func(t *testing.T) {
			servers, httpSrvs := newTestCluster(t, 3)
			var reqs []plandclient.PlanRequest
			for range 3 * len(httpSrvs) {
				req := base
				if req.Problem == "A2A" {
					req.Sizes = shuffled(base.Sizes)
				} else if rng.Intn(2) == 0 {
					req.XSizes, req.YSizes = shuffled(base.YSizes), shuffled(base.XSizes)
				} else {
					req.XSizes, req.YSizes = shuffled(base.XSizes), shuffled(base.YSizes)
				}
				reqs = append(reqs, req)
			}
			got := make([]*plandclient.PlanResult, len(reqs))
			errs := make([]error, len(reqs))
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i, req := range reqs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					got[i], errs[i] = plandclient.New(httpSrvs[i%len(httpSrvs)].URL).Plan(context.Background(), req)
				}()
			}
			close(start)
			wg.Wait()
			for i, req := range reqs {
				if errs[i] != nil {
					t.Fatalf("request %d through node %d: %v", i, i%len(httpSrvs), errs[i])
				}
				validateFor(t, req, got[i])
			}
			if n := misses(servers); n != 1 {
				t.Fatalf("the fleet's planners solved the instance %d times, want 1", n)
			}
		})
	}
}

// TestForwardReroutesAroundDeadPeer: when a keyed request's owner is dead,
// the hop guard plus the shared ring walk land the request on the successor
// — the same node a drain would have handed the key to. A session request
// and a plan request both take that path.
func TestForwardReroutesAroundDeadPeer(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()

	sess, err := plandclient.New(httpSrvs[0].URL).CreateSession(ctx, plandclient.SessionCreateRequest{
		Capacity: 10, Sizes: []assign.Size{2, 3},
	})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	ownerIdx := nodeIndex(t, httpSrvs, sess.Node)
	otherIdx := (ownerIdx + 1) % len(httpSrvs)

	// Kill the owner's listener. The next GET through another node marks the
	// owner down on the transport failure and reroutes to the successor,
	// which answers 404 — the session died with its node (it was in-memory);
	// what matters here is a clean envelope, not a hang or a 502 loop.
	httpSrvs[ownerIdx].CloseClientConnections()
	httpSrvs[ownerIdx].Close()
	_, err = plandclient.New(httpSrvs[otherIdx].URL).GetSession(ctx, sess.ID)
	if err == nil {
		t.Fatal("GET for a dead node's session succeeded")
	}
	if !plandclient.IsCode(err, plandclient.CodeNotFound) && !plandclient.IsCode(err, plandclient.CodePeerUnreachable) {
		t.Fatalf("unexpected failure shape: %v", err)
	}
	if alive := servers[otherIdx].cluster.health.Alive(httpSrvs[ownerIdx].URL); alive {
		t.Fatal("transport failure did not mark the dead owner down")
	}

	// A plan whose key the dead node owns, through the node that still thinks
	// it alive: the forward fails at the transport, and the plan is solved by
	// the successor or here — an answer, never a 5xx.
	thirdIdx := 3 - ownerIdx - otherIdx
	var req plandclient.PlanRequest
	for q := assign.Size(10); ; q++ {
		req = plandclient.PlanRequest{Problem: "A2A", Capacity: q, Sizes: []assign.Size{3, 3, 2, 2, 4, 1}}
		if _, idx := fleetKeyOwner(t, servers, httpSrvs, req); idx == ownerIdx {
			break
		}
	}
	got, err := plandclient.New(httpSrvs[thirdIdx].URL).Plan(ctx, req)
	if err != nil {
		t.Fatalf("plan owned by the dead node: %v", err)
	}
	validateFor(t, req, got)
	if alive := servers[thirdIdx].cluster.health.Alive(httpSrvs[ownerIdx].URL); alive {
		t.Fatal("the plan's failed forward did not mark the dead owner down")
	}
}
