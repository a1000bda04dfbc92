package a2a

import (
	"repro/internal/core"
)

// Bounds collects the lower bounds the paper derives for an A2A instance.
type Bounds struct {
	// Communication is a lower bound on the total map-to-reduce
	// communication of any valid schema: every input i must be sent to at
	// least ceil((W - w_i) / (q - w_i)) reducers, because each reducer that
	// holds i has only q - w_i capacity left for the other inputs it must
	// meet, whose total size is W - w_i.
	Communication core.Size
	// Reducers is a lower bound on the number of reducers of any valid
	// schema: the maximum of the communication bound divided by q (each
	// reducer receives at most q) and the pair-counting bound (each reducer
	// covers at most C(k_max, 2) pairs, where k_max is the largest number of
	// inputs that fit in one reducer).
	Reducers int
	// Replication is a lower bound on the replication rate,
	// Communication / W.
	Replication float64
	// MaxInputsPerReducer is k_max, the largest number of inputs that can
	// share a reducer (computed by filling greedily with the smallest
	// inputs).
	MaxInputsPerReducer int
}

// LowerBounds computes the paper's lower bounds for an A2A instance. For
// infeasible or single-input instances the bounds are zero.
func LowerBounds(set *core.InputSet, q core.Size) Bounds {
	var b Bounds
	m := set.Len()
	if m <= 1 {
		return b
	}
	total := set.TotalSize()

	// Communication bound: sum_i w_i * ceil((W - w_i) / (q - w_i)), saturating
	// at math.MaxInt64 (a smaller C still bounds: ceil(C/q) reducers).
	for i := 0; i < m; i++ {
		w := set.Size(i)
		rest := total - w
		room := q - w
		if room <= 0 {
			// The input cannot meet anything: no schema exists; report the
			// degenerate bound of shipping everything once.
			b.Communication = core.AddSat(b.Communication, w)
			continue
		}
		b.Communication = core.AddSat(b.Communication, core.MulSat(w, max(core.CeilDiv(rest, room), 1)))
	}
	if total > 0 {
		b.Replication = float64(b.Communication) / float64(total)
	}

	// k_max: fill a reducer with the smallest inputs.
	kMax := set.CountFitting(q)
	b.MaxInputsPerReducer = kMax

	// Reducer-count bounds.
	byComm := int(core.CeilDiv(b.Communication, q))
	byPairs := 0
	if kMax >= 2 {
		pairsPerReducer := kMax * (kMax - 1) / 2
		totalPairs := m * (m - 1) / 2
		byPairs = (totalPairs + pairsPerReducer - 1) / pairsPerReducer
	}
	b.Reducers = max(byComm, byPairs, 1)
	return b
}

// EqualSizedLowerBound specialises LowerBounds for m equal inputs of size w:
// the reducer bound becomes ceil( m(m-1) / (k(k-1)) ) with k = floor(q/w) and
// the communication bound m * w * ceil((m-1)/(k-1)).
func EqualSizedLowerBound(m int, w, q core.Size) Bounds {
	var b Bounds
	if m <= 1 || w <= 0 {
		return b
	}
	k := int(q / w)
	if k < 2 {
		return b
	}
	b.MaxInputsPerReducer = k
	// Each input must meet the other m-1 inputs, at most k-1 of them per
	// reducer it attends: replicas = ceil((m-1)/(k-1)).
	replicas := core.Size((m - 1 + k - 2) / (k - 1))
	if replicas < 1 {
		replicas = 1
	}
	b.Communication = core.MulSat(core.MulSat(core.Size(m), w), replicas)
	b.Replication = float64(replicas)
	pairs := m * (m - 1) / 2
	perReducer := k * (k - 1) / 2
	b.Reducers = (pairs + perReducer - 1) / perReducer
	if byComm := int(core.CeilDiv(b.Communication, q)); byComm > b.Reducers {
		b.Reducers = byComm
	}
	return b
}
