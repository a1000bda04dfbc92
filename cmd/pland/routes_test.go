package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/pkg/assign"
	"repro/pkg/assign/plandclient"
)

// routeVocabulary is the label — the `route` value of the pland_http_*
// series, the ?route= filter of /debug/traces and the name of the request's
// root span — each pattern of the table must carry. Dashboards,
// scripts/e2e-smoke.sh and recorded traces depend on these strings, so a row
// whose label moves fails here even though the table itself is consistent.
var routeVocabulary = map[string]string{
	"POST /v1/plan":            "/v1/plan",
	"POST /v1/execute":         "/v1/execute",
	"GET /v1/stats":            "/v1/stats",
	"POST /v2/jobs":            "/v2/jobs",
	"GET /v2/jobs/{id}":        "/v2/jobs/{id}",
	"DELETE /v2/jobs/{id}":     "/v2/jobs/{id}",
	"POST /v2/sessions":        "/v2/sessions",
	"GET /v2/sessions":         "/v2/sessions",
	"GET /v2/sessions/{id}":    "/v2/sessions/{id}",
	"PATCH /v2/sessions/{id}":  "/v2/sessions/{id}",
	"DELETE /v2/sessions/{id}": "/v2/sessions/{id}",
	"/healthz":                 "/healthz",
	"/readyz":                  "/readyz",
	"POST /internal/handoff":   "/internal/handoff",
	"/metrics":                 "/metrics",
	"GET /debug/traces":        "/debug/traces",
	"GET /debug/traces/{id}":   "/debug/traces/{id}",
	"/debug/pprof/":            "/debug/pprof",
	"/debug/pprof/cmdline":     "/debug/pprof",
	"/debug/pprof/profile":     "/debug/pprof",
	"/debug/pprof/symbol":      "/debug/pprof",
	"/debug/pprof/trace":       "/debug/pprof",
}

var pathWildcard = regexp.MustCompile(`\{\w+\}`)

// concrete fills a row's path wildcards in.
func concrete(rt *route) string { return pathWildcard.ReplaceAllString(rt.path, "x1") }

// newRouteTestServer keeps every trace, so a request's root span can be
// looked up by its route.
func newRouteTestServer(t *testing.T) *server {
	t.Helper()
	s := newServer(assign.NewPlanner(assign.PlannerConfig{}), serverConfig{TraceSampleRate: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s
}

// TestRouteLabel ranges over the routing table: each row's pattern carries
// the label today's vocabulary gives it, whatever the method and the ID, and
// what matches no row — unknown paths, an empty or a nested ID — is "other".
func TestRouteLabel(t *testing.T) {
	s := newRouteTestServer(t)
	if len(routes) != len(routeVocabulary) {
		t.Errorf("the table has %d rows, the vocabulary %d", len(routes), len(routeVocabulary))
	}
	for i := range routes {
		rt := &routes[i]
		want, ok := routeVocabulary[rt.pattern()]
		if !ok {
			t.Errorf("row %q is not in the vocabulary", rt.pattern())
			continue
		}
		for _, method := range []string{"GET", "POST", "PUT", "PATCH", "DELETE", "HEAD"} {
			_, pattern := s.mux.Handler(httptest.NewRequest(method, concrete(rt), nil))
			if got := routeLabels[pattern]; got != want {
				t.Errorf("%s %s matched %q, labelled %q, want %q", method, concrete(rt), pattern, got, want)
			}
		}
	}
	for _, path := range []string{"/", "/no/such/endpoint", "/v2/jobs/", "/v2/jobs/a/b", "/v2/sessions/s-1/extra", "/v1/plan/x"} {
		_, pattern := s.mux.Handler(httptest.NewRequest("GET", path, nil))
		if label, ok := routeLabels[pattern]; ok {
			t.Errorf("GET %s matched %q, labelled %q, want no row (\"other\")", path, pattern, label)
		}
	}
	if _, pattern := s.mux.Handler(httptest.NewRequest("GET", "/debug/pprof/heap", nil)); routeLabels[pattern] != "/debug/pprof" {
		t.Errorf("GET /debug/pprof/heap matched %q", pattern)
	}
}

// TestRouteTable drives every row of the table through the server: the row's
// method is answered by its handler (anything but a 405), the request's root
// span is named by the row's label, and every method no row of the path takes
// gets the 405 envelope with the path's methods in Allow. What matches no row
// gets the not_found envelope.
func TestRouteTable(t *testing.T) {
	s := newRouteTestServer(t)
	do := func(method, path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader("{}")))
		return w
	}
	envelopeCode := func(w *httptest.ResponseRecorder) string {
		t.Helper()
		resp := w.Result()
		defer resp.Body.Close()
		return decodeErrorEnvelope(t, resp)
	}
	allowed := make(map[string][]string)
	for i := range routes {
		allowed[routes[i].path] = append(allowed[routes[i].path], routes[i].method)
	}
	for i := range routes {
		rt := &routes[i]
		path := concrete(rt)
		// A CPU profile and an execution trace run for seconds; matching their
		// rows is TestRouteLabel's, the other pprof rows answer at once.
		slow := rt.path == "/debug/pprof/profile" || rt.path == "/debug/pprof/trace"
		for _, method := range []string{"GET", "POST", "PUT", "PATCH", "DELETE", "HEAD", "OPTIONS"} {
			takes := false
			for _, m := range allowed[rt.path] {
				takes = takes || m == method || m == ""
			}
			switch {
			case takes && (method == rt.method || rt.method == "") && !slow:
				before := len(s.recorder.List(obs.TraceFilter{Route: routeVocabulary[rt.pattern()], Limit: 1 << 20}))
				if w := do(method, path); w.Code == http.StatusMethodNotAllowed {
					t.Errorf("%s %s: 405 on the row's own method", method, path)
				}
				if after := len(s.recorder.List(obs.TraceFilter{Route: routeVocabulary[rt.pattern()], Limit: 1 << 20})); after != before+1 {
					t.Errorf("%s %s: no root span named %q was recorded", method, path, routeVocabulary[rt.pattern()])
				}
			case !takes:
				w := do(method, path)
				if w.Code != http.StatusMethodNotAllowed {
					t.Errorf("%s %s: status %d, want 405", method, path, w.Code)
					continue
				}
				if code := envelopeCode(w); code != plandclient.CodeMethodNotAllowed {
					t.Errorf("%s %s: error code %q", method, path, code)
				}
				if got, want := w.Header().Get("Allow"), strings.Join(allowed[rt.path], ", "); got != want {
					t.Errorf("%s %s: Allow = %q, want %q", method, path, got, want)
				}
			}
		}
	}
	for _, path := range []string{"/", "/no/such/endpoint", "/v2/jobs/", "/v2/jobs/a/b", "/v2/sessions/", "/debug/traces/"} {
		w := do("GET", path)
		if w.Code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, w.Code)
			continue
		}
		if code := envelopeCode(w); code != plandclient.CodeNotFound {
			t.Errorf("GET %s: error code %q", path, code)
		}
	}
}

// TestEveryRouteIsDocumented: the endpoint list in the package comment of
// main.go is written for people and stays hand-written; this holds it to the
// table. Rows that share a label are documented once, under it.
func TestEveryRouteIsDocumented(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	for i := range routes {
		rt := &routes[i]
		method, path := rt.method, rt.path
		if method == "" {
			method = "GET"
		}
		if rt.label != "" {
			path = rt.label + "/"
		}
		line := regexp.MustCompile(`(?m)^//\t` + method + `\s+` + regexp.QuoteMeta(path) + `(\s|$)`)
		if !line.MatchString(doc) {
			t.Errorf("main.go's endpoint list has no line for %s %s", method, path)
		}
	}
}
