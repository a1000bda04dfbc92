package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// workload is one of the benchmark's four systems under test. The harness
// drives it through prepare → (setup → teardown)* → setup → timed ops →
// finish → teardown. What prepare builds lives under the run's scratch root
// and goes with it.
type workload interface {
	name() string
	// clients is how many closed-loop clients drive the timed phase.
	clients() int
	// opSize states the work of one op for the report.
	opSize() string
	// prepare does the once-per-run work that is not part of the system's own
	// set-up: inputs from the seed, reference outputs for the checks, built
	// binaries, prepared data directories.
	prepare(ctx context.Context, env *runEnv, sh shape) error
	// inputsDigest fingerprints what prepare generated from the seed.
	inputsDigest() uint64
	// setup brings the system from nothing to ready for its first timed op,
	// warm-up included. teardown undoes it, so setup can run fresh again.
	// With traced set, every later op records spans.
	setup(ctx context.Context, traced bool) error
	teardown()
	// op runs timed op i of client c and checks its output. It returns the
	// latency of the call into the system alone; the check is outside it.
	op(ctx context.Context, c, i int, acc *accumulator) (time.Duration, error)
	// finish runs the checks that need the whole phase, such as the final
	// state of every session, and adds what they yield to the phase's record.
	finish(ctx context.Context, acc *accumulator) error
	// layers computes the per-layer metrics after a traced pass; base is the
	// untraced pass over the same ops.
	layers(ctx context.Context, base, traced *phase) (map[string]float64, error)
}

// accumulator collects, per client, what ops report besides latency. Sums
// are kept per client and folded in client order so that they are
// bit-identical however the clients interleave.
type accumulator struct {
	replSum, rlbSum float64
	schemas         int
	counts          map[string]int64
	kinds           map[string][]time.Duration
}

func newAccumulator() *accumulator {
	return &accumulator{counts: map[string]int64{}, kinds: map[string][]time.Duration{}}
}

// quality records one planned schema's replication rate and its reducer
// count over the instance's lower bound.
func (a *accumulator) quality(replication float64, reducers, lowerBound int) {
	a.replSum += replication
	if lowerBound < 1 {
		lowerBound = 1
	}
	a.rlbSum += float64(reducers) / float64(lowerBound)
	a.schemas++
}

func (a *accumulator) merge(o *accumulator) {
	a.replSum += o.replSum
	a.rlbSum += o.rlbSum
	a.schemas += o.schemas
	for k, v := range o.counts {
		a.counts[k] += v
	}
	for k, v := range o.kinds {
		a.kinds[k] = append(a.kinds[k], v...)
	}
}

// phase is the outcome of one timed pass.
type phase struct {
	lat       []time.Duration // every attempted op
	sliceRate []float64       // ops per busy second, one entry per slice
	calibMS   []float64
	attempted int
	failed    int
	firstErr  error
	acc       *accumulator
}

// runner carries a workload through its timed slices. It is resumable so
// that an all-workload run can interleave blocks of slices across workloads.
type runner struct {
	w     workload
	sh    shape
	next  int // next slice
	ph    *phase
	accs  []*accumulator
	perOp [][]time.Duration // per client
}

func newRunner(w workload, sh shape) *runner {
	r := &runner{w: w, sh: sh, ph: &phase{acc: newAccumulator()}}
	for c := 0; c < w.clients(); c++ {
		r.accs = append(r.accs, newAccumulator())
		r.perOp = append(r.perOp, make([]time.Duration, 0, sh.timed()))
	}
	return r
}

// runSlices runs the next n slices. Within a slice every client runs its
// perSlice ops back to back; slices are separated by a barrier and one run
// of the host calibration kernel.
func (r *runner) runSlices(ctx context.Context, n int) {
	for s := 0; s < n && r.next < r.sh.slices; s++ {
		clients := r.w.clients()
		busy := make([]time.Duration, clients)
		errs := make([]error, clients)
		fails := make([]int, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < r.sh.perSlice; k++ {
					i := r.next*r.sh.perSlice + k
					d, err := r.w.op(ctx, c, i, r.accs[c])
					r.perOp[c] = append(r.perOp[c], d)
					busy[c] += d
					if err != nil {
						fails[c]++
						if errs[c] == nil {
							errs[c] = fmt.Errorf("client %d op %d: %w", c, i, err)
						}
					}
				}
			}(c)
		}
		wg.Wait()
		var rate float64
		for c := 0; c < clients; c++ {
			if busy[c] > 0 {
				rate += float64(r.sh.perSlice) / busy[c].Seconds()
			}
			r.ph.failed += fails[c]
			if errs[c] != nil && r.ph.firstErr == nil {
				r.ph.firstErr = errs[c]
			}
		}
		r.ph.attempted += clients * r.sh.perSlice
		r.ph.sliceRate = append(r.ph.sliceRate, rate)
		r.ph.calibMS = append(r.ph.calibMS, calibrate())
		r.next++
	}
}

// result folds the per-client records, in client order.
func (r *runner) result() *phase {
	for c := range r.accs {
		r.ph.acc.merge(r.accs[c])
		r.ph.lat = append(r.ph.lat, r.perOp[c]...)
	}
	return r.ph
}

// timedSetups runs the set-up `setups` times, each from nothing, and leaves
// the last one up. It returns each one's wall time in seconds.
func timedSetups(ctx context.Context, w workload, traced bool) ([]float64, error) {
	var all []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		if err := w.setup(ctx, traced); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s set-up %d: %w", w.name(), i+1, err)
		}
		all = append(all, time.Since(start).Seconds())
		if i < setups-1 {
			w.teardown()
		}
	}
	return all, nil
}

// calibBuf is the input of the host calibration kernel.
var calibBuf = make([]byte, 2<<20)

// calibrate runs a fixed single-threaded SHA-256 kernel and returns its wall
// time in ms. It measures the host, not the program: runs whose calibration
// disagrees were made on a host in a different state.
func calibrate() float64 {
	start := time.Now()
	sum := sha256.Sum256(calibBuf)
	calibBuf[0] = sum[0] // keep the work observable
	return ms(time.Since(start))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median returns the middle of the values (mean of the two middles for an
// even count), 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the p-th percentile (nearest rank) of the durations.
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(p/100*float64(len(s))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func medianDur(d []time.Duration) time.Duration { return percentile(d, 50) }

// errCheck marks an op whose call succeeded but whose output was wrong.
var errCheck = errors.New("output check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}
