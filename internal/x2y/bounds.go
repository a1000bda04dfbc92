package x2y

import (
	"repro/internal/core"
)

// Bounds collects lower bounds for an X2Y instance, mirroring the A2A bounds
// of the paper.
type Bounds struct {
	// Communication is a lower bound on the map-to-reduce communication:
	// every X input x must be sent to at least ceil(W_Y / (q - w_x))
	// reducers (each reducer holding x has only q - w_x room for Y inputs,
	// and x must meet all of Y), and symmetrically for Y inputs.
	Communication core.Size
	// Reducers is a lower bound on the number of reducers: the maximum of
	// the communication bound divided by q and the pair-counting bound
	// (each reducer covers at most kx*ky cross pairs).
	Reducers int
	// Replication is Communication divided by the combined input size.
	Replication float64
	// MaxXPerReducer and MaxYPerReducer are the largest numbers of X (resp.
	// Y) inputs that can share one reducer together with at least one input
	// of the other side.
	MaxXPerReducer int
	MaxYPerReducer int
}

// LowerBounds computes the lower bounds for an X2Y instance. Empty sides
// yield zero bounds.
func LowerBounds(xs, ys *core.InputSet, q core.Size) Bounds {
	var b Bounds
	if xs.Len() == 0 || ys.Len() == 0 {
		return b
	}
	totX, totY := xs.TotalSize(), ys.TotalSize()
	b.Communication = core.AddSat(copies(xs, totY, q), copies(ys, totX, q))
	b.Replication = float64(b.Communication) / (float64(totX) + float64(totY))

	// kx: the most X inputs that can share a reducer while leaving room for
	// the smallest Y input (and vice versa).
	b.MaxXPerReducer = xs.CountFitting(q - ys.MinSize())
	b.MaxYPerReducer = ys.CountFitting(q - xs.MinSize())

	byPairs := 0
	if perReducer := b.MaxXPerReducer * b.MaxYPerReducer; perReducer > 0 {
		byPairs = (xs.Len()*ys.Len() + perReducer - 1) / perReducer
	}
	b.Reducers = max(int(core.CeilDiv(b.Communication, q)), byPairs, 1)
	return b
}

// copies is the communication bound of one side: an input of size w must
// meet other bytes of the opposite side with at most q - w of them in any
// reducer, so it is sent at least ceil(other / (q - w)) times, and once when
// it has no room at all. The sum saturates at math.MaxInt64.
func copies(set *core.InputSet, other, q core.Size) core.Size {
	var comm core.Size
	for i := range set.Len() {
		w, replicas := set.Size(i), core.Size(1)
		if room := q - w; room > 0 {
			replicas = max(core.CeilDiv(other, room), 1)
		}
		comm = core.AddSat(comm, core.MulSat(w, replicas))
	}
	return comm
}
