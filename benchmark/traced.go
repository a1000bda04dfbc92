package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/obs"
)

// usageSample is a cumulative reading of the process that does the work: this
// one for the in-process workloads, the pland child for svc_mixed.
type usageSample struct {
	cpuS, mallocs, allocBytes, gcPauseNS, peakRSSMB float64
}

func selfUsage() usageSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	u := usageSample{mallocs: float64(m.Mallocs), allocBytes: float64(m.TotalAlloc), gcPauseNS: float64(m.PauseTotalNs)}
	u.cpuS, u.peakRSSMB = procUsage("self")
	return u
}

// usage reads the pland child through /proc and its heap profile's MemStats
// dump. GC pause is counted from the previous reading on.
func (w *svcMixed) usage(ctx context.Context) (usageSample, error) {
	var u usageSample
	var err error
	since := w.usageAt
	w.usageAt = time.Now()
	u.mallocs, u.allocBytes, u.gcPauseNS, err = w.proc.heapStats(ctx, since)
	if since.IsZero() {
		u.gcPauseNS = 0
	}
	u.cpuS, u.peakRSSMB = procUsage(strconv.Itoa(w.proc.cmd.Process.Pid))
	return u, err
}

func usageOf(ctx context.Context, w workload) (usageSample, error) {
	if u, ok := w.(interface {
		usage(context.Context) (usageSample, error)
	}); ok {
		return u.usage(ctx)
	}
	return selfUsage(), nil
}

// runTraced is the separate traced run: the first block of the timed ops
// once untraced and once more, from a fresh set-up, with spans recorded —
// a benchmark-owned root span and recorder in ctx for the in-process
// workloads, pland's flight recorder at sample rate 1 for svc_mixed. The
// ratio of the two passes is the tracing overhead; the end-to-end numbers
// never come from here.
func runTraced(ctx context.Context, j *job) error {
	w, rec := j.w, j.rec
	pass := func(traced bool) (*phase, usageSample, usageSample, error) {
		var u0, u1 usageSample
		if err := w.setup(ctx, traced); err != nil {
			return nil, u0, u1, fmt.Errorf("set-up: %w", err)
		}
		u0, err := usageOf(ctx, w)
		if err != nil {
			return nil, u0, u1, err
		}
		r := newRunner(w, j.sh)
		r.runSlices(ctx, j.sh.tracedSlices())
		if u1, err = usageOf(ctx, w); err != nil {
			return nil, u0, u1, err
		}
		ph := r.result()
		if err := w.finish(ctx, ph.acc); err != nil {
			ph.firstErr = errors.Join(ph.firstErr, err)
			ph.failed++
		}
		return ph, u0, u1, nil
	}
	base, u0, u1, err := pass(false)
	w.teardown()
	if err != nil {
		return err
	}
	traced, _, _, err := pass(true)
	if err != nil {
		w.teardown()
		return err
	}
	m, err := w.layers(ctx, base, traced)
	w.teardown()
	if err != nil {
		return fmt.Errorf("per-layer metrics: %w", err)
	}

	if r := median(traced.sliceRate); r > 0 {
		m["obs.trace_overhead_ratio"] = median(base.sliceRate) / r
	}
	ops := float64(base.attempted)
	m["process.cpu_ms_per_op"] = (u1.cpuS - u0.cpuS) * 1e3 / ops
	m["process.alloc_mb_per_op"] = (u1.allocBytes - u0.allocBytes) / (1 << 20) / ops
	m["process.allocs_per_op"] = (u1.mallocs - u0.mallocs) / ops
	m["process.gc_pause_ms"] = (u1.gcPauseNS - u0.gcPauseNS) / 1e6
	m["process.peak_rss_mb"] = u1.peakRSSMB
	m["host.calib_ms"] = median(append(append([]float64(nil), base.calibMS...), traced.calibMS...))
	m["obs.span_us"] = spanProbe()

	for _, spec := range perLayer {
		rec.Metrics[spec.name] = metricValue{m[spec.name], spec.unit}
	}
	rec.Attempted = base.attempted + traced.attempted
	rec.Failed = base.failed + traced.failed
	rec.Correct = rec.Failed == 0
	if err := errors.Join(base.firstErr, traced.firstErr); err != nil {
		rec.Error = err.Error()
	}
	rec.CalibMS = m["host.calib_ms"]
	rec.WallS = time.Since(j.start).Seconds()
	return ctx.Err()
}

// spanProbe times the tracer alone: a root span, three stages and End, in µs.
func spanProbe() float64 {
	var samples []float64
	for b := 0; b < 21; b++ {
		const n = 500
		start := time.Now()
		for i := 0; i < n; i++ {
			_, sp := obs.StartSpan(context.Background(), "probe")
			sp.Stage("a")()
			sp.Stage("b")()
			sp.Stage("c")()
			sp.End()
		}
		samples = append(samples, us(time.Since(start))/n)
	}
	return median(samples)
}
