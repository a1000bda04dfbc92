package jobs

import (
	"io"

	"repro/internal/obs"
)

// series are a Manager's pland_jobs_* metrics, on its own registry and the
// only place it counts: Stats reads its counts from them. Gauges
// follow a strict inc/dec discipline — Submit raises queue depth, exactly
// one of worker dequeue / Cancel-of-queued / Shutdown-drain lowers it — so
// the values stay truthful.
type series struct {
	reg                          *obs.Registry
	queueDepth, inFlight         *obs.Gauge
	submitted, rejected, expired *obs.Counter
	succeeded, failed, canceled  *obs.Counter
	waitSeconds, runSeconds      *obs.Histogram
}

func newSeries() series {
	reg := obs.NewRegistry()
	s := series{reg: reg}
	s.queueDepth = reg.Gauge("pland_jobs_queue_depth",
		"Jobs waiting for a worker.")
	s.inFlight = reg.Gauge("pland_jobs_in_flight",
		"Jobs executing right now.")
	s.submitted = reg.Counter("pland_jobs_submitted_total",
		"Jobs accepted by Submit.")
	s.rejected = reg.Counter("pland_jobs_rejected_total",
		"Submits refused because the queue was full.")
	finished := reg.CounterVec("pland_jobs_finished_total",
		"Jobs reaching a terminal state, by state (succeeded, failed, canceled).", "state")
	s.succeeded, s.failed, s.canceled = finished.With("succeeded"), finished.With("failed"), finished.With("canceled")
	s.expired = reg.Counter("pland_jobs_expired_total",
		"Finished jobs evicted after their result TTL.")
	s.waitSeconds = reg.Histogram("pland_jobs_wait_seconds",
		"Queue wait from Submit to a worker starting the job.", obs.LatencyBuckets)
	s.runSeconds = reg.Histogram("pland_jobs_run_seconds",
		"Job execution time, start to finish.", obs.LatencyBuckets)
	return s
}

// WritePrometheus writes the manager's series in Prometheus text format.
func (m *Manager) WritePrometheus(w io.Writer) error { return m.metrics.reg.WritePrometheus(w) }
