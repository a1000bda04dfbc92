package skewjoin

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/workload"
)

// BaselineResult describes a plain hash-join run used as the comparison point
// for the skew-aware plan: every tuple of key k goes to reducer hash(k) % R,
// so a heavy hitter lands entirely on one reducer.
type BaselineResult struct {
	// NumReducers is the number of reduce partitions used.
	NumReducers int
	// JoinedCount is the number of output rows.
	JoinedCount int64
	// Counters are the engine's measurements; MaxReducerLoad shows the skew.
	Counters mr.Counters
	// CapacityViolated reports whether some reducer received more than the
	// capacity q — i.e. whether the plain hash join would simply not fit the
	// paper's reducer-capacity model.
	CapacityViolated bool
}

// HashJoinBaseline runs the ordinary repartition (hash) join with the given
// number of reducers and reports its load profile against the capacity q.
// Unlike Run it never fails on capacity: it reports the violation instead, so
// cmd/skewjoin can show how badly the heavy hitters overload a single reducer.
func HashJoinBaseline(x, y *workload.Relation, numReducers int, q core.Size, countOnly bool) (*BaselineResult, error) {
	if x == nil || y == nil || len(x.Tuples) == 0 || len(y.Tuples) == 0 {
		return nil, ErrEmptyRelation
	}
	if numReducers <= 0 {
		return nil, fmt.Errorf("skewjoin: baseline needs a positive reducer count, got %d", numReducers)
	}
	records := encodeRelations(x, y)
	mapper := mr.MapperFunc(func(record []byte, emit func(mr.Pair)) error {
		side, _, key, payload, err := decodeInput(record)
		if err != nil {
			return err
		}
		emit(mr.Pair{Key: key, Value: encodeLightValue(side, key, payload)})
		return nil
	})
	job := &mr.Job{
		Name:        "hash-join-baseline",
		Mapper:      mapper,
		Reducer:     lightReducer(Config{CountOnly: countOnly}),
		NumReducers: numReducers,
	}
	runRes, err := mr.Run(context.Background(), job, mr.NewSliceSource(records), nil, mr.StreamOptions{})
	if err != nil {
		return nil, fmt.Errorf("skewjoin: baseline run: %w", err)
	}
	res := &BaselineResult{NumReducers: numReducers, Counters: runRes.Counters}
	res.CapacityViolated = q > 0 && runRes.Counters.MaxReducerLoad > int64(q)
	for _, rec := range runRes.FlatOutput() {
		if countOnly {
			var n int64
			if _, err := fmt.Sscanf(string(rec), "%d", &n); err != nil {
				return nil, fmt.Errorf("skewjoin: malformed baseline count %q: %w", rec, err)
			}
			res.JoinedCount += n
			continue
		}
		res.JoinedCount++
	}
	return res, nil
}
