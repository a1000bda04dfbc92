package main

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// selfTimes sums span self time by span name over a set of trace records.
type selfTimes struct {
	self  map[string]time.Duration // by span name
	seen  map[string]int           // records that had the span at least once
	roots time.Duration            // summed root durations
	own   time.Duration            // root time no child span covers
	n     int                      // records
}

func newSelfTimes() *selfTimes {
	return &selfTimes{self: map[string]time.Duration{}, seen: map[string]int{}}
}

// perOpMS returns the mean self time of the named span in ms, over the
// records that contain it.
func (s *selfTimes) perOpMS(name string) float64 {
	if s.seen[name] == 0 {
		return 0
	}
	return ms(s.self[name]) / float64(s.seen[name])
}

// coverage is the share of root wall time that child spans account for.
func (s *selfTimes) coverage() float64 {
	if s.roots == 0 {
		return 0
	}
	return 1 - float64(s.own)/float64(s.roots)
}

type flatSpan struct {
	name       string
	start, end int64 // ns from the root's start, clipped to the root
	level      int
}

// add attributes every instant of the record's root interval to the
// innermost span active at that instant — "innermost" by interval
// containment, because the program hangs some stages off the request span as
// siblings although one runs inside the other (exec_map inside exec_stream,
// the solve:<member> arms inside race). Spans that overlap without nesting,
// such as the parallel solver arms, share the instant equally. A span's self
// time is what it is attributed, so the self times of one record sum to its
// root's duration exactly.
func (s *selfTimes) add(rec obs.TraceRecord) {
	rootEnd := rec.Root.DurationUS * 1000
	var spans []flatSpan
	var walk func(sn obs.SpanSnapshot)
	walk = func(sn obs.SpanSnapshot) {
		st := sn.Start.Sub(rec.Root.Start).Nanoseconds()
		en := st + sn.DurationUS*1000
		if st < 0 {
			st = 0
		}
		if en > rootEnd {
			en = rootEnd
		}
		if en < st {
			en = st
		}
		spans = append(spans, flatSpan{name: sn.Name, start: st, end: en})
		for _, c := range sn.Children {
			walk(c)
		}
	}
	walk(rec.Root)
	spans[0].start, spans[0].end = 0, rootEnd
	// level = how many spans contain this one; equal intervals nest in
	// pre-order, which is parent before child.
	for i := range spans {
		for j := range spans {
			if i == j {
				continue
			}
			a, b := spans[j], spans[i]
			if a.start <= b.start && a.end >= b.end && (a.start != b.start || a.end != b.end || j < i) {
				spans[i].level++
			}
		}
	}
	bounds := make([]int64, 0, 2*len(spans))
	for _, sp := range spans {
		bounds = append(bounds, sp.start, sp.end)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	names := map[string]bool{}
	for k := 0; k+1 < len(bounds); k++ {
		lo, hi := bounds[k], bounds[k+1]
		if hi <= lo {
			continue
		}
		top, winners := -1, 0
		for _, sp := range spans {
			if sp.start <= lo && sp.end >= hi {
				if sp.level > top {
					top, winners = sp.level, 1
				} else if sp.level == top {
					winners++
				}
			}
		}
		share := time.Duration((hi - lo) / int64(winners))
		for i, sp := range spans {
			if sp.start <= lo && sp.end >= hi && sp.level == top {
				s.self[sp.name] += share
				if i == 0 {
					s.own += share
				}
			}
		}
	}
	for _, sp := range spans {
		names[sp.name] = true
	}
	for n := range names {
		s.seen[n]++
	}
	s.roots += time.Duration(rootEnd)
	s.n++
}

// spanDur returns the summed duration of the record's spans with the name.
func spanDur(sn obs.SpanSnapshot, name string) time.Duration {
	var d time.Duration
	if sn.Name == name {
		d += time.Duration(sn.DurationUS) * time.Microsecond
	}
	for _, c := range sn.Children {
		d += spanDur(c, name)
	}
	return d
}

// tracer records the spans of in-process ops: a flight recorder that keeps
// every trace, and the root spans the benchmark itself opens around each op.
// No span is added inside the program.
type tracer struct {
	rec *obs.Recorder
}

func newTracer(ops int) *tracer {
	// The recorder stripes its ring by trace-ID hash; 4x head room keeps an
	// unlucky stripe from evicting.
	return &tracer{rec: obs.NewRecorder(obs.RecorderConfig{Capacity: 4*ops + 64, SampleRate: 1})}
}

// records returns every retained trace record.
func (t *tracer) records() []obs.TraceRecord {
	var out []obs.TraceRecord
	for _, sum := range t.rec.List(obs.TraceFilter{Limit: 1 << 30}) {
		out = append(out, t.rec.Get(sum.TraceID)...) // one root, one trace ID, per op
	}
	return out
}
