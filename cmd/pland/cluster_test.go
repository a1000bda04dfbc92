package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/pkg/assign"
	"repro/pkg/assign/plandclient"
)

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
	wantOwner := servers[0].cluster.ring.Lookup(sess.ID)
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
	owner := servers[0].cluster.ring.Lookup(job.ID)
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
// node whose shard holds it.
func fleetKeyOwner(t *testing.T, servers []*server, httpSrvs []*httptest.Server, req plandclient.PlanRequest) (string, int) {
	t.Helper()
	opts, aerr := servers[0].planOptions(req)
	if aerr != nil {
		t.Fatalf("planOptions: %v", aerr)
	}
	key, _, err := servers[0].planner.ExportPlan(append(opts, assign.NoCache())...)
	if err != nil {
		t.Fatalf("ExportPlan: %v", err)
	}
	return key, nodeIndex(t, httpSrvs, servers[0].cluster.ring.Lookup(key))
}

// awaitPublished waits for the asynchronous publish of a solve to reach the
// owner's planner.
func awaitPublished(t *testing.T, owner *server, key string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if plan, err := owner.planner.CachedPlan(key); err != nil || plan != nil {
			if err != nil {
				t.Fatalf("CachedPlan: %v", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("solved result never reached the owner's planner")
		}
		time.Sleep(2 * time.Millisecond)
	}
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

// TestFleetPlanCache: one node's solve serves the whole fleet. The canonical
// key's owner holds the cache shard; a solve elsewhere publishes to it, and
// later isomorphic requests — through any node — come back as fleet hits that
// are valid for the requester's own input order.
func TestFleetPlanCache(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()

	req := plandclient.PlanRequest{Problem: "A2A", Capacity: 10, Sizes: []assign.Size{3, 3, 2, 2, 4, 1}}
	key, ownerIdx := fleetKeyOwner(t, servers, httpSrvs, req)
	solverIdx := (ownerIdx + 1) % len(httpSrvs) // deliberately not the owner

	first, err := plandclient.New(httpSrvs[solverIdx].URL).Plan(ctx, req)
	if err != nil {
		t.Fatalf("Plan on non-owner: %v", err)
	}
	if first.FleetCacheHit {
		t.Fatal("first solve reported a fleet cache hit")
	}
	awaitPublished(t, servers[ownerIdx], key)

	// An isomorphic instance (same multiset, different order) through the
	// owner and through a third node must both be fleet hits now.
	iso := req
	iso.Sizes = []assign.Size{1, 4, 2, 2, 3, 3}
	for _, idx := range []int{ownerIdx, (ownerIdx + 2) % len(httpSrvs)} {
		got, err := plandclient.New(httpSrvs[idx].URL).Plan(ctx, iso)
		if err != nil {
			t.Fatalf("Plan via node %d: %v", idx, err)
		}
		if !got.FleetCacheHit {
			t.Fatalf("node %d solved instead of serving the fleet cache", idx)
		}
		if got.Reducers != first.Reducers || got.Communication != first.Communication {
			t.Fatalf("fleet cache hit diverged: %+v vs %+v", got, first)
		}
		validateFor(t, iso, got)
	}

	// NoCache opts out of the fleet layer entirely.
	nc := req
	nc.NoCache = true
	got, err := plandclient.New(httpSrvs[ownerIdx].URL).Plan(ctx, nc)
	if err != nil {
		t.Fatalf("Plan with NoCache: %v", err)
	}
	if got.FleetCacheHit {
		t.Fatal("no_cache request served from the fleet cache")
	}
}

// TestFleetHitsAreValidForTheRequester: the fleet cache is keyed on the
// canonical instance, so what it serves must be relabelled for each
// requester. Forty random A2A instances are solved on one node and asked for
// again, shuffled, through another; an X2Y instance comes back with its sides
// swapped and each side shuffled. Every answer is a fleet hit and every
// answer satisfies the constraints of the request it answers.
func TestFleetHitsAreValidForTheRequester(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(19))

	// served solves req on a node that does not own it and returns what a
	// third node then serves for the isomorphic again.
	served := func(req, again plandclient.PlanRequest) *plandclient.PlanResult {
		t.Helper()
		key, ownerIdx := fleetKeyOwner(t, servers, httpSrvs, req)
		first, err := plandclient.New(httpSrvs[(ownerIdx+1)%3].URL).Plan(ctx, req)
		if err != nil {
			t.Fatalf("Plan %+v: %v", req, err)
		}
		validateFor(t, req, first)
		awaitPublished(t, servers[ownerIdx], key)
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

// TestFleetCacheValueIsNotTrusted: PUT /internal/cache/{key} imports the
// value into the owner's planner, which checks it first. A value in the parent
// commit's format (a whole plan response over the publisher's input IDs,
// captured from that build) and a plan whose schema breaks the capacity are
// both refused with 422 and leave nothing behind: the owner's GET of the key
// misses, the request is solved locally, and that solve, published to the
// owner, is what the rest of the fleet is then served.
func TestFleetCacheValueIsNotTrusted(t *testing.T) {
	parentValue, err := os.ReadFile(filepath.Join("testdata", "fleet_value_parent.json"))
	if err != nil {
		t.Fatal(err)
	}
	const overloaded = `{"sizes":[1,2,2,3,3,4],"schema":{"problem":"A2A","capacity":10,` +
		`"reducers":[{"inputs":[0,1,2,3,4,5],"load":15}]},"winner":"nobody","lower_bound_reducers":1,"candidates":1}`
	for name, bad := range map[string]string{"parent format": string(parentValue), "over capacity": overloaded} {
		t.Run(name, func(t *testing.T) {
			servers, httpSrvs := newTestCluster(t, 3)
			ctx := context.Background()
			req := plandclient.PlanRequest{Problem: "A2A", Capacity: 10, Sizes: []assign.Size{3, 3, 2, 2, 4, 1}}
			key, ownerIdx := fleetKeyOwner(t, servers, httpSrvs, req)
			owner := plandclient.New(httpSrvs[ownerIdx].URL)
			if err := owner.FleetCachePut(ctx, key, json.RawMessage(bad)); !plandclient.IsCode(err, plandclient.CodeUnprocessable) {
				t.Fatalf("FleetCachePut of a bad value = %v, want a 422", err)
			}
			if held, err := owner.FleetCacheGet(ctx, key); err != nil || held != nil {
				t.Fatalf("the owner's GET after a refused PUT = %s, %v; want a miss", held, err)
			}
			got, err := plandclient.New(httpSrvs[(ownerIdx+1)%3].URL).Plan(ctx, req)
			if err != nil {
				t.Fatalf("Plan after a refused PUT: %v", err)
			}
			if got.FleetCacheHit || got.CacheHit {
				t.Fatalf("the bad value was served: %+v", got)
			}
			validateFor(t, req, got)
			// The local solve is published in its place: the owner and a third
			// node are served it.
			awaitPublished(t, servers[ownerIdx], key)
			for _, idx := range []int{ownerIdx, (ownerIdx + 2) % 3} {
				got, err := plandclient.New(httpSrvs[idx].URL).Plan(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if !got.FleetCacheHit {
					t.Fatalf("node %d was not served the local solve that replaced the bad value", idx)
				}
				validateFor(t, req, got)
			}
		})
	}
}

// TestFleetHitMeansAPlanFromTheWire: fleet_cache_hit marks a plan that
// arrived over the wire. The node that solved an instance serves its repeats
// from its own solve — cache_hit, not fleet_cache_hit — whether it owns the
// instance's key or probes an owner that now holds the published copy.
func TestFleetHitMeansAPlanFromTheWire(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()
	for i, sizes := range [][]assign.Size{{3, 3, 2, 2, 4, 1}, {5, 1, 4, 2, 2, 3, 1}} {
		req := plandclient.PlanRequest{Problem: "A2A", Capacity: 12, Sizes: sizes}
		key, ownerIdx := fleetKeyOwner(t, servers, httpSrvs, req)
		solverIdx := (ownerIdx + i) % len(httpSrvs) // the owner, then a node that is not
		solver := plandclient.New(httpSrvs[solverIdx].URL)
		first, err := solver.Plan(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if first.CacheHit || first.FleetCacheHit {
			t.Fatalf("instance %d: the first solve reads %+v", i, first)
		}
		awaitPublished(t, servers[ownerIdx], key)
		again, err := solver.Plan(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !again.CacheHit || again.FleetCacheHit {
			t.Fatalf("instance %d: the solving node %d (owner %d) repeats its own solve as cache_hit %v, fleet_cache_hit %v",
				i, solverIdx, ownerIdx, again.CacheHit, again.FleetCacheHit)
		}
	}
}

// TestFleetPublishLandsInTheOwnersPlanner: a peer's publish is imported into
// the owner's planner — the plan is held once, not beside it in a second
// cache — and the owner then serves isomorphic requests from it without
// solving.
func TestFleetPublishLandsInTheOwnersPlanner(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()
	req := plandclient.PlanRequest{Problem: "X2Y", Capacity: 12,
		XSizes: []assign.Size{7, 2, 1, 5, 3}, YSizes: []assign.Size{1, 2, 4, 1, 3, 2, 5}}
	key, ownerIdx := fleetKeyOwner(t, servers, httpSrvs, req)
	owner := servers[ownerIdx].planner
	before := owner.CacheLen()
	if _, err := plandclient.New(httpSrvs[(ownerIdx+1)%3].URL).Plan(ctx, req); err != nil {
		t.Fatal(err)
	}
	awaitPublished(t, servers[ownerIdx], key)
	if n := owner.CacheLen(); n != before+1 {
		t.Fatalf("the owner's planner holds %d plans after the publish, had %d", n, before)
	}
	misses := owner.Stats().CacheMisses
	mirrored := req
	mirrored.XSizes, mirrored.YSizes = []assign.Size{2, 5, 1, 3, 4, 2, 1}, []assign.Size{3, 5, 1, 2, 7}
	got, err := plandclient.New(httpSrvs[ownerIdx].URL).Plan(ctx, mirrored)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CacheHit || !got.FleetCacheHit {
		t.Fatalf("the owner's isomorphic request reads cache_hit %v, fleet_cache_hit %v; want both", got.CacheHit, got.FleetCacheHit)
	}
	if n := owner.CacheLen(); n != before+1 || owner.Stats().CacheMisses != misses {
		t.Fatalf("serving the published plan solved or stored again: %d plans, %d misses (was %d)",
			n, owner.Stats().CacheMisses, misses)
	}
	validateFor(t, mirrored, got)
}

// TestFleetPlanLowerBoundIsRecomputed: the lower bound a published plan
// carries is not served. A valid plan PUT with lower_bound_reducers 999 comes
// back with the bound the importing planner proves, and a gap that is not
// negative.
func TestFleetPlanLowerBoundIsRecomputed(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()
	req := plandclient.PlanRequest{Problem: "A2A", Capacity: 10, Sizes: []assign.Size{3, 3, 2, 2, 4, 1}}
	key, ownerIdx := fleetKeyOwner(t, servers, httpSrvs, req)
	opts, _ := servers[0].planOptions(req)
	solver := assign.NewPlanner(assign.PlannerConfig{})
	want, err := solver.Plan(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	_, plan, err := solver.ExportPlan(opts...)
	if err != nil || plan == nil {
		t.Fatalf("ExportPlan = %s, %v", plan, err)
	}
	var value map[string]any
	if err := json.Unmarshal(plan, &value); err != nil {
		t.Fatal(err)
	}
	value["lower_bound_reducers"] = 999
	inflated, err := json.Marshal(value)
	if err != nil {
		t.Fatal(err)
	}
	if err := plandclient.New(httpSrvs[ownerIdx].URL).FleetCachePut(ctx, key, inflated); err != nil {
		t.Fatalf("FleetCachePut of a valid plan: %v", err)
	}
	for _, idx := range []int{ownerIdx, (ownerIdx + 1) % 3} {
		got, err := plandclient.New(httpSrvs[idx].URL).Plan(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !got.FleetCacheHit || got.LowerBoundReducers != want.LowerBoundReducers || got.Gap < 0 {
			t.Fatalf("node %d served the published plan as fleet_cache_hit %v, lower bound %d, gap %d; want a fleet hit with bound %d",
				idx, got.FleetCacheHit, got.LowerBoundReducers, got.Gap, want.LowerBoundReducers)
		}
	}
}

// TestForwardReroutesAroundDeadPeer: when a keyed request's owner is dead,
// the hop guard plus the shared ring walk land the request on the successor
// — the same node a drain would have handed the key to.
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
}
