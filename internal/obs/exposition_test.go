package obs

import (
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// checkExposition is a strict Prometheus text-format v0.0.4 checker shared by
// the obs tests and reused (via scrape tests in cmd/pland) in spirit: every
// sample line must parse, every sample must be preceded by HELP and TYPE
// lines for its family, histogram buckets must be cumulative and monotone,
// and le="+Inf" must equal _count.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	type familyMeta struct {
		help, typ string
	}
	families := map[string]familyMeta{}
	// Per-histogram-child state keyed by family + child labels (minus le).
	type histState struct {
		lastLe  float64
		lastCum uint64
		infCum  uint64
		hasInf  bool
		count   uint64
		hasCnt  bool
	}
	hists := map[string]*histState{}

	baseName := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) {
				if fam, ok := families[strings.TrimSuffix(name, suf)]; ok && fam.typ == "histogram" {
					return strings.TrimSuffix(name, suf)
				}
			}
		}
		return name
	}

	// parseLabels splits a {..} block into pairs, validating escaping.
	parseLabels := func(s string) (map[string]string, error) {
		out := map[string]string{}
		if s == "" {
			return out, nil
		}
		if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
			return nil, fmt.Errorf("malformed label block %q", s)
		}
		rest := s[1 : len(s)-1]
		for rest != "" {
			eq := strings.Index(rest, "=")
			if eq < 0 {
				return nil, fmt.Errorf("label pair missing = in %q", s)
			}
			name := rest[:eq]
			if !validName(name) {
				return nil, fmt.Errorf("invalid label name %q", name)
			}
			rest = rest[eq+1:]
			if !strings.HasPrefix(rest, `"`) {
				return nil, fmt.Errorf("label value not quoted in %q", s)
			}
			rest = rest[1:]
			var val strings.Builder
			closed := false
			for i := 0; i < len(rest); i++ {
				c := rest[i]
				if c == '\\' {
					if i+1 >= len(rest) {
						return nil, fmt.Errorf("dangling escape in %q", s)
					}
					i++
					switch rest[i] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return nil, fmt.Errorf("bad escape \\%c in %q", rest[i], s)
					}
					continue
				}
				if c == '"' {
					closed = true
					rest = rest[i+1:]
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return nil, fmt.Errorf("unterminated label value in %q", s)
			}
			out[name] = val.String()
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				if rest == "" {
					return nil, fmt.Errorf("trailing comma in %q", s)
				}
			} else if rest != "" {
				return nil, fmt.Errorf("junk %q after label value in %q", rest, s)
			}
		}
		return out, nil
	}

	childKey := func(fam string, labels map[string]string) string {
		parts := make([]string, 0, len(labels))
		for k, v := range labels {
			if k == "le" {
				continue
			}
			parts = append(parts, k+"="+v)
		}
		// Map iteration order is random; a sorted join is stable.
		for i := 1; i < len(parts); i++ {
			for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
				parts[j], parts[j-1] = parts[j-1], parts[j]
			}
		}
		return fam + "|" + strings.Join(parts, ",")
	}

	lines := strings.Split(body, "\n")
	if len(lines) == 0 || lines[len(lines)-1] != "" {
		t.Error("exposition must end with a newline")
	}
	for ln, line := range lines {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			sp := strings.IndexByte(rest, ' ')
			if sp < 0 {
				t.Errorf("line %d: HELP without text: %q", ln+1, line)
				continue
			}
			name := rest[:sp]
			if !validName(name) {
				t.Errorf("line %d: invalid metric name %q", ln+1, name)
			}
			if _, dup := families[name]; dup {
				t.Errorf("line %d: duplicate HELP for %q", ln+1, name)
			}
			families[name] = familyMeta{help: rest[sp+1:]}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Errorf("line %d: malformed TYPE: %q", ln+1, line)
				continue
			}
			name, typ := fields[0], fields[1]
			fam, ok := families[name]
			if !ok {
				t.Errorf("line %d: TYPE %q before HELP", ln+1, name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("line %d: unknown type %q", ln+1, typ)
			}
			fam.typ = typ
			families[name] = fam
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unexpected comment %q", ln+1, line)
			continue
		}
		// Sample line: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("line %d: malformed sample %q", ln+1, line)
			continue
		}
		nameAndLabels, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" && valStr != "-Inf" && valStr != "NaN" {
			t.Errorf("line %d: bad sample value %q", ln+1, valStr)
			continue
		}
		name := nameAndLabels
		labelPart := ""
		if i := strings.IndexByte(nameAndLabels, '{'); i >= 0 {
			name, labelPart = nameAndLabels[:i], nameAndLabels[i:]
		}
		if !validName(name) {
			t.Errorf("line %d: invalid sample name %q", ln+1, name)
			continue
		}
		labels, err := parseLabels(labelPart)
		if err != nil {
			t.Errorf("line %d: %v", ln+1, err)
			continue
		}
		fam := baseName(name)
		meta, ok := families[fam]
		if !ok {
			t.Errorf("line %d: sample %q has no HELP/TYPE", ln+1, name)
			continue
		}
		if meta.typ == "" {
			t.Errorf("line %d: sample %q family has HELP but no TYPE", ln+1, name)
		}
		if meta.typ == "counter" && val < 0 {
			t.Errorf("line %d: counter %q is negative: %g", ln+1, name, val)
		}
		if meta.typ == "histogram" {
			key := childKey(fam, labels)
			st := hists[key]
			if st == nil {
				st = &histState{lastLe: -1 * 1e308}
				hists[key] = st
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, ok := labels["le"]
				if !ok {
					t.Errorf("line %d: bucket without le: %q", ln+1, line)
					continue
				}
				cum := uint64(val)
				if le == "+Inf" {
					st.infCum, st.hasInf = cum, true
				} else {
					b, err := strconv.ParseFloat(le, 64)
					if err != nil {
						t.Errorf("line %d: bad le %q", ln+1, le)
						continue
					}
					if b <= st.lastLe {
						t.Errorf("line %d: le bounds not ascending (%g after %g)", ln+1, b, st.lastLe)
					}
					st.lastLe = b
				}
				if cum < st.lastCum {
					t.Errorf("line %d: histogram buckets not cumulative (%d after %d)", ln+1, cum, st.lastCum)
				}
				st.lastCum = cum
			case strings.HasSuffix(name, "_count"):
				st.count, st.hasCnt = uint64(val), true
			}
		}
	}
	for key, st := range hists {
		if !st.hasInf {
			t.Errorf("histogram %q: missing le=\"+Inf\" bucket", key)
		}
		if !st.hasCnt {
			t.Errorf("histogram %q: missing _count", key)
		}
		if st.hasInf && st.hasCnt && st.infCum != st.count {
			t.Errorf("histogram %q: le=\"+Inf\" bucket %d != _count %d", key, st.infCum, st.count)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pland_test_requests_total", "Total requests.")
	c.Add(7)
	g := r.Gauge("pland_test_depth", "Queue depth.")
	g.Set(3)
	h := r.Histogram("pland_test_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)
	cv := r.CounterVec("pland_test_by_kind_total", "By kind.", "kind")
	cv.With("add").Add(2)
	cv.With("remove").Inc()
	cv.With(`weird"value\with`).Inc()
	hv := r.HistogramVec("pland_test_route_seconds", "Route latency.", []float64{0.01, 0.1}, "route", "status")
	hv.With("/v1/plan", "200").Observe(0.02)
	hv.With("/v1/plan", "400").Observe(0.2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	checkExposition(t, body)

	for _, want := range []string{
		"# HELP pland_test_requests_total Total requests.\n",
		"# TYPE pland_test_requests_total counter\n",
		"pland_test_requests_total 7\n",
		"pland_test_depth 3\n",
		`pland_test_latency_seconds_bucket{le="0.001"} 1` + "\n",
		`pland_test_latency_seconds_bucket{le="0.1"} 2` + "\n",
		`pland_test_latency_seconds_bucket{le="+Inf"} 3` + "\n",
		"pland_test_latency_seconds_count 3\n",
		`pland_test_by_kind_total{kind="add"} 2` + "\n",
		`pland_test_by_kind_total{kind="weird\"value\\with"} 1` + "\n",
		`pland_test_route_seconds_bucket{route="/v1/plan",status="200",le="0.01"} 0` + "\n",
		`pland_test_route_seconds_bucket{route="/v1/plan",status="200",le="+Inf"} 1` + "\n",
		`pland_test_route_seconds_count{route="/v1/plan",status="400"} 1` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n--- body ---\n%s", want, body)
		}
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "line one\nline two with \\ backslash")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP esc_total line one\nline two with \\ backslash` + "\n"
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("HELP escaping wrong:\n%s", sb.String())
	}
	checkExposition(t, sb.String())
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("ct_total", "x").Inc()
	r2 := NewRegistry()
	r2.Gauge("ct_second", "y").Set(2)
	rec := httptest.NewRecorder()
	Handler(r.WritePrometheus, r2.WritePrometheus).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", got)
	}
	checkExposition(t, rec.Body.String())
	body := rec.Body.String()
	if i, j := strings.Index(body, "ct_total 1\n"), strings.Index(body, "ct_second 2\n"); i < 0 || j < i {
		t.Fatalf("body lacks a writer's sample, or has them out of order:\n%s", body)
	}
}
