package main

import (
	"net/http"
	"net/http/pprof"
	"strings"

	"repro/pkg/assign/plandclient"
)

// route is one row of the routing table. Everything the service does per
// route comes from its row: the ServeMux registration, the 405 envelope of
// the other methods, the `route` label of the pland_http_* series and the
// name of the request's root span, where the path's {id} is read, and how a
// clustered node decides who serves the request.
type route struct {
	// method is the one HTTP method the row answers. "" answers every method:
	// the probes, /metrics and pprof have never looked at it.
	method string
	// path is the ServeMux path pattern. It doubles as the label, except
	// where several paths share one (label set).
	path  string
	label string
	// held marks a route keyed by its {id} and reports whether this node
	// holds that ID. A key held here is served here — a session pinned or
	// handed off to this node, a rebuild job enqueued beside its session under
	// a manager-drawn ID — so ring position never bounces live state away;
	// only a local miss asks the ring, and forwards to the owner.
	held func(s *server, id string) bool
	// newID marks a create placed by the ID it is about to get: the ID is
	// drawn before anything else, the create is forwarded to the ID's ring
	// owner with the ID pinned, and the handler finds it (drawn here, or
	// pinned by the forwarding node) as the path value "id".
	newID func() string
	// debug rows move to the -debug-addr listener when there is one.
	debug   bool
	handler func(s *server, w http.ResponseWriter, r *http.Request)
}

var routes = []route{
	// /v1/plan is keyed too, but by its body: handlePlan decodes it, computes
	// the instance's canonical key and forwards to the key's owner itself.
	{method: "POST", path: "/v1/plan", handler: (*server).handlePlan},
	{method: "POST", path: "/v1/execute", handler: (*server).handleExecute},
	{method: "GET", path: "/v1/stats", handler: (*server).handleStats},
	{method: "POST", path: "/v2/jobs", newID: newJobID, handler: (*server).submitJob},
	{method: "GET", path: "/v2/jobs/{id}", held: (*server).holdsJob, handler: (*server).getJob},
	{method: "DELETE", path: "/v2/jobs/{id}", held: (*server).holdsJob, handler: (*server).cancelJob},
	{method: "POST", path: "/v2/sessions", newID: newSessionID, handler: (*server).createSession},
	{method: "GET", path: "/v2/sessions", handler: (*server).listSessions},
	{method: "GET", path: "/v2/sessions/{id}", held: (*server).holdsSession, handler: (*server).getSession},
	{method: "PATCH", path: "/v2/sessions/{id}", held: (*server).holdsSession, handler: (*server).patchSession},
	{method: "DELETE", path: "/v2/sessions/{id}", held: (*server).holdsSession, handler: (*server).deleteSession},
	{path: "/healthz", handler: (*server).handleHealthz},
	{path: "/readyz", handler: (*server).handleReadyz},
	{method: "POST", path: "/internal/handoff", handler: (*server).handleHandoff},
	{path: "/metrics", debug: true, handler: (*server).handleMetrics},
	{method: "GET", path: "/debug/traces", debug: true, handler: (*server).handleTraces},
	{method: "GET", path: "/debug/traces/{id}", debug: true, handler: (*server).handleTrace},
	{path: "/debug/pprof/", label: "/debug/pprof", debug: true, handler: plain(pprof.Index)},
	{path: "/debug/pprof/cmdline", label: "/debug/pprof", debug: true, handler: plain(pprof.Cmdline)},
	{path: "/debug/pprof/profile", label: "/debug/pprof", debug: true, handler: plain(pprof.Profile)},
	{path: "/debug/pprof/symbol", label: "/debug/pprof", debug: true, handler: plain(pprof.Symbol)},
	{path: "/debug/pprof/trace", label: "/debug/pprof", debug: true, handler: plain(pprof.Trace)},
}

// plain adapts a handler that needs no server.
func plain(h http.HandlerFunc) func(*server, http.ResponseWriter, *http.Request) {
	return func(_ *server, w http.ResponseWriter, r *http.Request) { h(w, r) }
}

// pattern is the row's ServeMux pattern.
func (rt *route) pattern() string {
	if rt.method == "" {
		return rt.path
	}
	return rt.method + " " + rt.path
}

// routeLabels maps every pattern mount registers to its label; a request
// that matches none of them (the catch-all's 404s) is labelled "other". The
// vocabulary is fixed by the table — IDs never reach a label — so the label
// sets stay bounded whatever clients request.
var routeLabels = func() map[string]string {
	labels := make(map[string]string, 2*len(routes))
	for i := range routes {
		rt := &routes[i]
		label := rt.label
		if label == "" {
			label = rt.path
		}
		labels[rt.pattern()] = label
		labels[rt.path] = label // the path's 405 fallback
	}
	return labels
}()

// mount registers the table's debug rows, or all the others, on mux. A path
// whose rows name their methods also gets a method-less registration — the
// less specific pattern, so it sees exactly the methods no row takes — that
// answers the 405 envelope.
func (s *server) mount(mux *http.ServeMux, debug bool) {
	allowed := make(map[string][]string) // path -> its rows' methods, in table order
	for i := range routes {
		if rt := &routes[i]; rt.debug == debug && rt.method != "" {
			allowed[rt.path] = append(allowed[rt.path], rt.method)
		}
	}
	deny := make(map[string]http.HandlerFunc, len(allowed))
	for path, methods := range allowed {
		deny[path] = methodNotAllowed(methods)
		mux.HandleFunc(path, deny[path])
	}
	for i := range routes {
		if rt := &routes[i]; rt.debug == debug {
			mux.HandleFunc(rt.pattern(), s.serve(rt, deny[rt.path]))
		}
	}
}

// methodNotAllowed answers 405 for a path that takes only the given methods.
func methodNotAllowed(methods []string) http.HandlerFunc {
	want := methods[0]
	switch n := len(methods); {
	case n == 2:
		want += " or " + methods[1]
	case n > 2:
		want = strings.Join(methods[:n-1], ", ") + ", or " + methods[n-1]
	}
	aerr := newAPIError(http.StatusMethodNotAllowed, plandclient.CodeMethodNotAllowed, want+" required", nil)
	allow := strings.Join(methods, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeAPIError(w, aerr)
	}
}

// serve wraps a row's handler in what the row declares: the cluster routing
// of keyed and placed routes, ahead of the handler, so a forwarded request's
// body is never read here.
func (s *server) serve(rt *route, deny http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// ServeMux lets HEAD match a GET pattern; pland has never answered HEAD.
		if rt.method != "" && r.Method != rt.method {
			deny(w, r)
			return
		}
		switch {
		case rt.newID != nil:
			id := pinnedID(r)
			if id == "" {
				id = rt.newID()
				if s.forwardToOwner(w, r, id, id) {
					return
				}
			}
			r.SetPathValue("id", id)
		case rt.held != nil && s.cluster != nil:
			if id := r.PathValue("id"); !rt.held(s, id) && s.forwardToOwner(w, r, id, "") {
				return
			}
		}
		rt.handler(s, w, r)
	}
}
