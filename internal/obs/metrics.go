package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The zero value is ready to
// use; all methods are safe for concurrent use and lock-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to use;
// all methods are safe for concurrent use and lock-free.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds d (negative to subtract).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat is a float64 updated by compare-and-swap, for histogram sums.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram counts observations into fixed buckets, exposed in the
// Prometheus cumulative style (_bucket{le=...}, _sum, _count) so any scraper
// can derive quantiles. Create via Registry.Histogram; observations are
// lock-free (one atomic add into the bucket, one into the count, one CAS
// into the sum).
type Histogram struct {
	// bounds are the ascending inclusive upper bounds; the +Inf bucket is
	// implicit as counts[len(bounds)].
	bounds []float64
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	// Drop duplicates and non-finite bounds; +Inf is always implicit.
	out := bs[:0]
	for i, b := range bs {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			continue
		}
		if i > 0 && len(out) > 0 && b == out[len(out)-1] {
			continue
		}
		out = append(out, b)
	}
	return &Histogram{bounds: out, counts: make([]atomic.Uint64, len(out)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Quantile estimates the q-quantile (0 < q < 1, e.g. 0.99) from the bucket
// counts by linear interpolation within the target bucket, the same estimate
// Prometheus's histogram_quantile computes. It returns 0 with no
// observations and the largest finite bound when the target falls in the
// +Inf bucket.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	lower := 0.0
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			if i < len(h.bounds) {
				lower = h.bounds[i]
			}
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) { // +Inf bucket: no upper bound to interpolate to
				return lower
			}
			upper := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lower + (upper-lower)*frac
		}
		cum += n
		if i < len(h.bounds) {
			lower = h.bounds[i]
		}
	}
	return lower
}

// snapshot returns the cumulative bucket counts (le each bound, then +Inf),
// the total count, and the sum, consistent enough for exposition (Prometheus
// tolerates scrape-time skew between concurrent observations).
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, h.count.Load(), h.sum.load()
}

// ExpBuckets returns n exponentially growing bucket bounds: start,
// start*factor, ... — the shape latency and size histograms want, so a fixed
// bucket count covers several orders of magnitude.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		return []float64{start}
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets spans 50µs to ~1.6s in doubling steps — wide enough for a
// cached plan lookup and a full portfolio pass alike.
var LatencyBuckets = ExpBuckets(50e-6, 2, 16)

// ByteBuckets spans 256B to ~1GB in 4x steps, for migration and shuffle
// sizes.
var ByteBuckets = ExpBuckets(256, 4, 12)

// vec is the shared child table behind CounterVec, GaugeVec, and
// HistogramVec: label values -> child, created on first use.
type vec[T any] struct {
	labels []string
	newFn  func() *T

	mu       sync.RWMutex
	children map[string]*vecChild[T]
}

type vecChild[T any] struct {
	values []string
	m      *T
}

func newVec[T any](labels []string, newFn func() *T) *vec[T] {
	return &vec[T]{labels: labels, newFn: newFn, children: make(map[string]*vecChild[T])}
}

func (v *vec[T]) with(values ...string) *T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: metric vec with labels %v given %d values", v.labels, len(values)))
	}
	key := strings.Join(values, "\xff")
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c.m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.children[key]; ok {
		return c.m
	}
	c = &vecChild[T]{values: append([]string(nil), values...), m: v.newFn()}
	v.children[key] = c
	return c.m
}

// sorted returns the children ordered by label values for deterministic
// exposition.
func (v *vec[T]) sorted() []*vecChild[T] {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*vecChild[T], len(keys))
	for i, k := range keys {
		out[i] = v.children[k]
	}
	v.mu.RUnlock()
	return out
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	v *vec[Counter]
}

// With returns (creating on first use) the child counter for the label
// values, which must match the vec's label arity.
func (cv *CounterVec) With(values ...string) *Counter { return cv.v.with(values...) }

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct {
	v *vec[Gauge]
}

// With returns the child gauge for the label values.
func (gv *GaugeVec) With(values ...string) *Gauge { return gv.v.with(values...) }

// HistogramVec is a histogram family partitioned by label values; every
// child shares the vec's bucket bounds.
type HistogramVec struct {
	v *vec[Histogram]
}

// With returns the child histogram for the label values.
func (hv *HistogramVec) With(values ...string) *Histogram { return hv.v.with(values...) }
