package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/pkg/assign"
	"repro/pkg/assign/plandclient"
)

// surfaceFile pins what one pland exposes to scrapers and dashboards: every
// /metrics family (name, TYPE, label names) and every key of the /v1/stats
// JSON. A change that moves where a series is kept must leave it as it is.
const surfaceFile = "testdata/surface.txt"

// TestExposedSurface drives one server through a plan, an execute, a session
// create and patch and a plan job, then holds its /metrics families and its
// /v1/stats keys to surfaceFile. A family's label names come from its
// samples; a family no sample shows (the fleet's, outside a cluster) keeps
// the label names the file gives it. Run with -update-golden to rewrite it.
func TestExposedSurface(t *testing.T) {
	s := newServer(assign.NewPlanner(assign.PlannerConfig{}), serverConfig{})
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	c := plandclient.New(srv.URL)
	ctx := context.Background()
	sizes := []assign.Size{3, 3, 2, 2, 4, 1}
	if _, err := c.Plan(ctx, plandclient.PlanRequest{Problem: "A2A", Capacity: 10, Sizes: sizes}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(ctx, plandclient.ExecuteRequest{Problem: "A2A", Capacity: 10, Inputs: []string{"aaa", "bbb", "cc", "d"}}); err != nil {
		t.Fatal(err)
	}
	sess, err := c.CreateSession(ctx, plandclient.SessionCreateRequest{Capacity: 20, Sizes: []assign.Size{5, 3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.UpdateSession(ctx, sess.ID, plandclient.SessionDelta{Op: "add", Size: 4}); err != nil {
		t.Fatal(err)
	}
	job, err := c.SubmitPlan(ctx, plandclient.PlanRequest{Problem: "X2Y", Capacity: 10, XSizes: []assign.Size{7, 2, 1}, YSizes: []assign.Size{1, 2, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(ctx, job.ID, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	want := map[string]string{} // family name -> its line in the file
	if f, err := os.Open(surfaceFile); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fields := strings.Fields(sc.Text()); len(fields) == 4 && fields[0] == "family" {
				want[fields[1]] = sc.Text()
			}
		}
		f.Close()
	} else if !*updateGolden {
		t.Fatal(err)
	}

	var lines []string
	for _, fam := range scrapeFamilies(t, srv.URL+"/metrics") {
		labels := fam.labels
		if labels == "" { // no sample: keep what the file says
			if old, ok := want[fam.name]; ok {
				labels = strings.Fields(old)[3]
			} else {
				labels = "?"
			}
		}
		lines = append(lines, fmt.Sprintf("family %s %s %s", fam.name, fam.typ, labels))
	}
	for _, k := range statsKeys(t, srv.URL+"/v1/stats") {
		lines = append(lines, "stats "+k)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(surfaceFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(surfaceFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(surfaceFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(raw) {
		t.Errorf("exposed surface differs from %s:\n%s", surfaceFile, lineDiff(string(raw), got))
	}
}

// surfaceFamily is one /metrics family: its name, TYPE, and the label names
// of its samples ("-" for none, "" when no sample shows).
type surfaceFamily struct{ name, typ, labels string }

// scrapeFamilies reads one scrape's families in exposition order.
func scrapeFamilies(t *testing.T, url string) []surfaceFamily {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var fams []surfaceFamily
	index := map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if _, dup := index[name]; dup {
				t.Errorf("family %s is exposed twice", name)
			}
			index[name] = len(fams)
			fams = append(fams, surfaceFamily{name: name, typ: typ})
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, labels := line, "-"
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
			if line[i] == '{' {
				labels = labelNames(line[i+1:])
			}
		}
		i, ok := index[name]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if !ok {
				i, ok = index[strings.TrimSuffix(name, suffix)]
			}
		}
		if !ok {
			t.Fatalf("sample %q belongs to no family", line)
		}
		if fams[i].labels == "" {
			fams[i].labels = labels
		} else if fams[i].labels != labels {
			t.Errorf("family %s has samples labelled %s and %s", fams[i].name, fams[i].labels, labels)
		}
	}
	return fams
}

// labelNames returns the comma-joined label names (le aside) of a sample
// whose label block starts at s, or "-" when it has only le.
func labelNames(s string) string {
	var names []string
	for len(s) > 0 && s[0] != '}' {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			break
		}
		if name := strings.TrimPrefix(s[:eq], ","); name != "le" {
			names = append(names, name)
		}
		s = s[eq+2:] // past `="`
		for len(s) > 0 && s[0] != '"' {
			if s[0] == '\\' {
				s = s[1:]
			}
			s = s[1:]
		}
		s = s[1:]
	}
	if len(names) == 0 {
		return "-"
	}
	return strings.Join(names, ",")
}

// statsKeys lists the dotted paths of every /v1/stats key. solver_wins is a
// map keyed by portfolio member, so its own keys are not listed.
func statsKeys(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	var keys []string
	var walk func(prefix string, m map[string]any)
	walk = func(prefix string, m map[string]any) {
		for k, v := range m {
			keys = append(keys, prefix+k)
			if sub, ok := v.(map[string]any); ok && k != "solver_wins" {
				walk(prefix+k+".", sub)
			}
		}
	}
	walk("", body)
	return keys
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
