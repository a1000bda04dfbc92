package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// metric type names as they appear in # TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one registered metric name: its metadata plus exactly one
// collector (scalar or vec).
type family struct {
	name, help, typ string
	labels          []string // vec label names, nil for scalars

	counter   *Counter
	gauge     *Gauge
	histogram *Histogram

	counterVec   *CounterVec
	gaugeVec     *GaugeVec
	histogramVec *HistogramVec

	bounds []float64 // histogram bucket bounds (shared by vec children)
}

// Registry holds metric families and renders them as Prometheus text format
// v0.0.4. Use NewRegistry for an instance's own series; the process-wide
// series live on Default.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*family
	order  []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Default is the process-wide registry: the series no instance owns. cmd/pland
// exposes it at GET /metrics, followed by its planner's and job manager's
// own registries.
var Default = NewRegistry()

// validName reports whether name is a legal Prometheus metric or label name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register installs a family or returns the existing one. Registration is
// idempotent for an identical (name, type, label arity) signature; a
// mismatch panics — it is a programming error, not an operational state.
func (r *Registry) register(f *family) *family {
	if !validName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[f.name]; ok {
		if old.typ != f.typ || len(old.labels) != len(f.labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s with %d labels (was %s with %d)",
				f.name, f.typ, len(f.labels), old.typ, len(old.labels)))
		}
		return old
	}
	r.byName[f.name] = f
	r.order = append(r.order, f)
	return f
}

// Counter registers (or fetches) a counter. Counter names should end in
// _total.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(&family{name: name, help: help, typ: typeCounter, counter: &Counter{}}).counter
}

// CounterVec registers a counter family partitioned by the label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := &family{name: name, help: help, typ: typeCounter, labels: labels,
		counterVec: &CounterVec{v: newVec(labels, func() *Counter { return &Counter{} })}}
	return r.register(f).counterVec
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(&family{name: name, help: help, typ: typeGauge, gauge: &Gauge{}}).gauge
}

// GaugeVec registers a gauge family partitioned by the label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	f := &family{name: name, help: help, typ: typeGauge, labels: labels,
		gaugeVec: &GaugeVec{v: newVec(labels, func() *Gauge { return &Gauge{} })}}
	return r.register(f).gaugeVec
}

// Histogram registers (or fetches) a histogram with the given bucket upper
// bounds (+Inf is implicit). Duration histograms should end in _seconds and
// observe seconds.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	return r.register(&family{name: name, help: help, typ: typeHistogram, histogram: h, bounds: h.bounds}).histogram
}

// HistogramVec registers a histogram family partitioned by the label names;
// every child shares the bucket bounds.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	tmpl := newHistogram(buckets)
	f := &family{name: name, help: help, typ: typeHistogram, labels: labels, bounds: tmpl.bounds,
		histogramVec: &HistogramVec{v: newVec(labels, func() *Histogram { return newHistogram(tmpl.bounds) })}}
	return r.register(f).histogramVec
}

// families snapshots the registration order.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.order...)
}

// escapeHelp escapes a HELP string per the text format: backslash and
// newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...} for paired names and values; extra
// appends pre-rendered pairs (used for le). Empty input renders nothing.
func labelString(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	for i, e := range extra {
		if i > 0 || len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in registration order as Prometheus
// text format v0.0.4.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.families() {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		switch {
		case f.counter != nil:
			fmt.Fprintf(bw, "%s %d\n", f.name, f.counter.Value())
		case f.gauge != nil:
			fmt.Fprintf(bw, "%s %d\n", f.name, f.gauge.Value())
		case f.histogram != nil:
			writeHistogram(bw, f.name, "", f.bounds, f.histogram)
		case f.counterVec != nil:
			for _, c := range f.counterVec.v.sorted() {
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labelString(f.labels, c.values), c.m.Value())
			}
		case f.gaugeVec != nil:
			for _, c := range f.gaugeVec.v.sorted() {
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labelString(f.labels, c.values), c.m.Value())
			}
		case f.histogramVec != nil:
			for _, c := range f.histogramVec.v.sorted() {
				writeHistogram(bw, f.name, labelString(f.labels, c.values), f.bounds, c.m)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram child. labels is the pre-rendered
// {..} block of the child's own labels ("" for a scalar histogram); the
// le pair is spliced in per bucket line.
func writeHistogram(w io.Writer, name, labels string, bounds []float64, h *Histogram) {
	cum, count, sum := h.snapshot()
	// Bucket lines carry the child labels plus le; splice le inside the
	// existing block when present.
	open := func(le string) string {
		pair := `le="` + le + `"`
		if labels == "" {
			return "{" + pair + "}"
		}
		return labels[:len(labels)-1] + "," + pair + "}"
	}
	for i, b := range bounds {
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, open(formatFloat(b)), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, open("+Inf"), cum[len(cum)-1])
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, count)
}

// Handler serves a Prometheus scrape endpoint: the series of each writer in
// turn, such as a Registry's WritePrometheus.
func Handler(writers ...func(io.Writer) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, write := range writers {
			_ = write(w)
		}
	})
}
