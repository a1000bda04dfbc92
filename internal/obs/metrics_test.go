package obs

import (
	"math"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Inc()
	g.Add(10)
	g.Dec()
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	cum, count, sum := h.snapshot()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if want := 0.5 + 1 + 1.5 + 3 + 100; sum != want {
		t.Fatalf("sum = %g, want %g", sum, want)
	}
	// le=1 captures 0.5 and 1 (bounds are inclusive); le=2 adds 1.5;
	// le=4 adds 3; +Inf adds 100.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d] = %d, want %d (full %v)", i, cum[i], w, cum)
		}
	}
	if cum[len(cum)-1] != count {
		t.Fatalf("+Inf bucket %d != count %d", cum[len(cum)-1], count)
	}
}

func TestHistogramSanitizesBounds(t *testing.T) {
	h := newHistogram([]float64{4, 1, 2, 2, math.Inf(1), math.NaN(), 1})
	if got, want := len(h.bounds), 3; got != want {
		t.Fatalf("bounds = %v, want 3 finite unique", h.bounds)
	}
	for i := 1; i < len(h.bounds); i++ {
		if h.bounds[i] <= h.bounds[i-1] {
			t.Fatalf("bounds not ascending: %v", h.bounds)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram(ExpBuckets(1, 2, 10))
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
	// 100 observations uniform in (0, 100]: p50 should land near 50,
	// within the resolution of the bucket that holds rank 50 (32, 64].
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	p50 := h.Quantile(0.5)
	if p50 < 32 || p50 > 64 {
		t.Fatalf("p50 = %g, want within (32, 64]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 64 || p99 > 128 {
		t.Fatalf("p99 = %g, want within (64, 128]", p99)
	}
	if h.Quantile(0.5) >= h.Quantile(0.999) {
		t.Fatalf("quantiles not monotone: p50=%g p999=%g", h.Quantile(0.5), h.Quantile(0.999))
	}
}

func TestHistogramObserveHelpers(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	h.ObserveDuration(250 * time.Millisecond)
	h.ObserveSince(time.Now().Add(-10 * time.Millisecond))
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	if h.sum.load() < 0.25 {
		t.Fatalf("sum = %g, want >= 0.25", h.sum.load())
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", b, want)
		}
	}
	if got := ExpBuckets(5, 0.5, 3); len(got) != 1 || got[0] != 5 {
		t.Fatalf("degenerate buckets = %v, want [5]", got)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "different help ignored")
	if a != b {
		t.Fatal("re-registering a counter returned a different collector")
	}
	h1 := r.Histogram("h_seconds", "h", LatencyBuckets)
	h2 := r.Histogram("h_seconds", "h", LatencyBuckets)
	if h1 != h2 {
		t.Fatal("re-registering a histogram returned a different collector")
	}
	v1 := r.CounterVec("v_total", "v", "kind")
	v2 := r.CounterVec("v_total", "v", "kind")
	if v1 != v2 {
		t.Fatal("re-registering a counter vec returned a different collector")
	}
	v1.With("a").Inc()
	if got := v2.With("a").Value(); got != 1 {
		t.Fatalf("vec children not shared: got %d", got)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "m")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m_total", "m")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9lead", "has-dash", "has space"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("invalid name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "bad")
		}()
	}
	// le is reserved for histogram buckets.
	defer func() {
		if recover() == nil {
			t.Fatal("label name le did not panic")
		}
	}()
	r.CounterVec("ok_total", "ok", "le")
}

func TestVecArityPanics(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("arity_total", "a", "one", "two")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	cv.With("only-one")
}
