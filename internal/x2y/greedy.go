package x2y

import (
	"repro/internal/core"
)

// Greedy is a coverage-greedy baseline for the X2Y problem. It repeatedly
// opens a reducer seeded with the first uncovered cross pair and keeps adding
// the input (from either side) that covers the most still-uncovered cross
// pairs with the reducer's current members of the opposite side, until no
// addition helps or nothing fits. Ties go to the lowest ID, and to X over Y.
func Greedy(xs, ys *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	const algorithm = "x2y/greedy"
	if xs.Len() == 0 || ys.Len() == 0 {
		return emptySchema(q, algorithm), nil
	}
	if err := CheckFeasible(xs, ys, q); err != nil {
		return nil, err
	}
	nx, ny := xs.Len(), ys.Len()
	// Coverage is kept in both orientations: rows[x] holds the covered Y
	// partners of x, cols[y] the covered X partners of y.
	rows := make([]core.CoverSet, nx)
	for i := range rows {
		rows[i].Reset(ny)
	}
	cols := make([]core.CoverSet, ny)
	for i := range cols {
		cols[i].Reset(nx)
	}
	remaining := nx * ny
	x, y := newSide(xs, ny), newSide(ys, nx)
	defer x.release()
	defer y.release()
	ms := &core.MappingSchema{Problem: core.ProblemX2Y, Capacity: q, Algorithm: algorithm}

	cursorX, cursorY := 0, 0
	for remaining > 0 {
		// Find the first uncovered cross pair in (x, y) lexicographic order.
		x0, y0 := -1, -1
		for i := cursorX; i < nx; i++ {
			from := 0
			if i == cursorX {
				from = cursorY
			}
			if j := rows[i].NextAbsent(from); j < ny {
				x0, y0 = i, j
				break
			}
		}
		cursorX, cursorY = x0, y0
		load := xs.Size(x0) + ys.Size(y0)
		x.open(x0, q-load)
		y.open(y0, q-load)
		// Each side's gain for an outsider is how many members of the other
		// side it is not yet covered with. A joining input only meets
		// members, so no outsider's coverage changes: every outsider of the
		// other side still uncovered with the newcomer gains one, and the
		// members' pairs are covered once, as the reducer closes.
		x.gains.Bump(&cols[y0])
		y.gains.Bump(&rows[x0])
		for {
			bx, gx := x.gains.Best(x.fits)
			by, gy := y.gains.Best(y.fits)
			if gy > gx {
				y.join(by)
				load += ys.Size(by)
				x.gains.Bump(&cols[by])
			} else if gx > 0 {
				x.join(bx)
				load += xs.Size(bx)
				y.gains.Bump(&rows[bx])
			} else {
				break
			}
			x.trim(q - load)
			y.trim(q - load)
		}
		for _, i := range x.members {
			remaining -= rows[i].Union(y.memberSet)
		}
		for _, j := range y.members {
			cols[j].Union(x.memberSet)
		}
		ms.Reducers = append(ms.Reducers, core.Reducer{
			XInputs: x.memberSet.AppendTo(make([]int, 0, len(x.members))),
			YInputs: y.memberSet.AppendTo(make([]int, 0, len(y.members))),
			Load:    load,
		})
	}
	return ms, nil
}

// side is one side's half of Greedy's open reducer.
type side struct {
	set       *core.InputSet
	members   []int
	memberSet *core.CoverSet
	// gains holds each outsider's gain, fits the outsiders that still fit
	// beside the reducer's load. As the load grows they leave fits largest
	// first: bySize[:tooBig] are out.
	gains  core.Gains
	fits   *core.CoverSet
	bySize []int
	tooBig int
}

// newSide readies a side over set whose gains count members of an opposite
// side of other inputs.
func newSide(set *core.InputSet, other int) *side {
	s := &side{
		set:       set,
		memberSet: core.GetCoverSet(set.Len()),
		fits:      core.GetCoverSet(set.Len()),
		bySize:    set.IDsBySizeDescending(),
	}
	s.gains.Reset(set.Len(), other)
	return s
}

func (s *side) release() {
	core.PutCoverSet(s.memberSet)
	core.PutCoverSet(s.fits)
}

// open starts a reducer with first as the side's one member and room left
// beside the reducer's load.
func (s *side) open(first int, room core.Size) {
	s.members = append(s.members[:0], first)
	s.memberSet.Clear()
	s.memberSet.Add(first)
	s.fits.Fill()
	s.fits.Remove(first)
	s.tooBig = 0
	s.trim(room)
	s.gains.Clear()
}

// join adds id to the reducer.
func (s *side) join(id int) {
	s.members = append(s.members, id)
	s.memberSet.Add(id)
	s.fits.Remove(id)
}

// trim drops the outsiders larger than room from fits.
func (s *side) trim(room core.Size) {
	for ; s.tooBig < len(s.bySize) && s.set.Size(s.bySize[s.tooBig]) > room; s.tooBig++ {
		s.fits.Remove(s.bySize[s.tooBig])
	}
}
