package a2a_test

import (
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/exec"
)

// checkEqualSizedDispatch holds Solve on m equal inputs of size w to the
// dispatch's promise — never more reducers and never more communication than
// EqualSized, and never worse than the best full plane where one fits: no
// plane has fewer reducers, or as many and less communication — and whatever
// it returns to validity.
func checkEqualSizedDispatch(t *testing.T, m int, w, q core.Size) *core.MappingSchema {
	t.Helper()
	set, err := core.UniformInputSet(m, w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a2a.Solve(set, q)
	want, wantErr := a2a.EqualSized(set, q)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("m=%d w=%d q=%d: Solve says %v, EqualSized %v", m, w, q, err, wantErr)
	}
	if err != nil {
		return nil
	}
	cost, base := core.SchemaCost(got, set.TotalSize()), core.SchemaCost(want, set.TotalSize())
	if cost.Reducers > base.Reducers || cost.Communication > base.Communication {
		t.Fatalf("m=%d w=%d q=%d: %s uses %d reducers and ships %d, EqualSized %d and %d",
			m, w, q, got.Algorithm, cost.Reducers, cost.Communication, base.Reducers, base.Communication)
	}
	if plane, err := a2a.AffinePlane(set, q); err == nil {
		pc := core.SchemaCost(plane, set.TotalSize())
		if pc.Reducers < cost.Reducers || pc.Reducers == cost.Reducers && pc.Communication < cost.Communication {
			t.Fatalf("m=%d w=%d q=%d: %s uses %d reducers and ships %d, the plane %d and %d",
				m, w, q, got.Algorithm, cost.Reducers, cost.Communication, pc.Reducers, pc.Communication)
		}
	}
	checkEqualSizedSchema(t, set, q, got, cost)
	return got
}

// checkEqualSizedSchema holds a schema for equal inputs to ValidateA2A, the
// executor's static audit and the lower bounds.
func checkEqualSizedSchema(t *testing.T, set *core.InputSet, q core.Size, ms *core.MappingSchema, cost core.Cost) {
	t.Helper()
	m, w := set.Len(), set.Size(0)
	if err := ms.ValidateA2A(set); err != nil {
		t.Fatalf("m=%d w=%d q=%d: %s: %v", m, w, q, ms.Algorithm, err)
	}
	aud, err := exec.NewAuditor(ms, m)
	if err == nil {
		err = aud.PreCheck()
	}
	if err != nil {
		t.Fatalf("m=%d w=%d q=%d: %s fails the audit: %v", m, w, q, ms.Algorithm, err)
	}
	if lb := a2a.LowerBounds(set, q); m > 1 && (cost.Reducers < lb.Reducers || cost.Communication < lb.Communication) {
		t.Fatalf("m=%d w=%d q=%d: %s beats the lower bounds %+v with %+v", m, w, q, ms.Algorithm, lb, cost)
	}
}

// TestEqualSizedDispatchNeverWorseThanGrouping sweeps m and k and checks
// every schema the equal-sized dispatch returns, counting how often the
// affine plane and the plane plus a remainder win so the sweep is known to
// reach both.
func TestEqualSizedDispatchNeverWorseThanGrouping(t *testing.T) {
	planes, remainders, built := 0, 0, 0
	for _, m := range []int{2, 3, 4, 5, 9, 16, 17, 30, 49, 64, 80, 81, 100, 150, 256, 300, 500, 700, 1000, 1500} {
		for _, k := range []int{2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 30, 40, 50, 64, 100, 150, 200} {
			for _, w := range []core.Size{1, 7} {
				q := core.Size(k)*w + w/2
				if n, _ := a2a.EqualSizedReducerCount(m, w, q); n > 1<<14 {
					continue
				}
				ms := checkEqualSizedDispatch(t, m, w, q)
				built++
				if ms == nil {
					continue
				}
				switch ms.Algorithm {
				case "a2a/affine-plane":
					planes++
				case "a2a/plane-remainder":
					remainders++
				}
			}
		}
	}
	if planes == 0 || remainders == 0 || planes+remainders == built {
		t.Fatalf("the plane won %d and the plane plus a remainder %d of %d instances; the sweep does not exercise the choice",
			planes, remainders, built)
	}
}

// TestPlaneRemainderPriceIsItsBuild builds the plane plus a remainder that
// the dispatch prices, whether or not it wins, over a sample of m <= 2,100
// and k <= 200: the schema has exactly the priced reducers and copies, and is
// valid, passes the static audit and respects the lower bounds. Every m up
// to 150 is taken at two sizes, q falling between multiples of the larger;
// past it, every 59th m and the benchmark's three shapes, at one size.
func TestPlaneRemainderPriceIsItsBuild(t *testing.T) {
	built := 0
	for m := 3; m <= 2100; m++ {
		sizes := []core.Size{1, 5}
		if m > 150 {
			if m%59 != 0 && m != 1950 && m != 2000 && m != 2049 {
				continue
			}
			sizes = sizes[:1]
		}
		for _, k := range []int{2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 20, 25, 31, 32, 50, 62, 64, 100, 128, 200} {
			for _, w := range sizes {
				q := core.Size(k)*w + w/2
				if n, _ := a2a.EqualSizedReducerCount(m, w, q); n > 1<<13 {
					continue
				}
				set, _ := core.UniformInputSet(m, w)
				ms, reducers, copies, ok, err := a2a.PlaneRemainder(set, q)
				if err != nil {
					t.Fatalf("m=%d w=%d q=%d: %v", m, w, q, err)
				}
				if !ok {
					continue
				}
				built++
				cost := core.SchemaCost(ms, set.TotalSize())
				if cost.Reducers != reducers || cost.Communication != core.Size(copies)*w {
					t.Fatalf("m=%d w=%d q=%d: built %d reducers shipping %d, priced %d and %d copies",
						m, w, q, cost.Reducers, cost.Communication, reducers, copies)
				}
				checkEqualSizedSchema(t, set, q, ms, cost)
			}
		}
	}
	if built < 2000 {
		t.Fatalf("only %d instances price a remainder design; the sweep does not exercise it", built)
	}
}

// TestAffinePlaneSchemasPassTheAudit builds AffinePlane itself, whatever the
// dispatch would choose, across orders and bin sizes.
func TestAffinePlaneSchemasPassTheAudit(t *testing.T) {
	for _, m := range []int{5, 13, 40, 97, 250, 600} {
		for k := 2; k <= 64; k += 3 {
			set, _ := core.UniformInputSet(m, 2)
			q := core.Size(2 * k)
			ms, err := a2a.AffinePlane(set, q)
			if err != nil {
				continue // no order fits
			}
			if err := ms.ValidateA2A(set); err != nil {
				t.Fatalf("m=%d k=%d: %v", m, k, err)
			}
			aud, err := exec.NewAuditor(ms, m)
			if err == nil {
				err = aud.PreCheck()
			}
			if err != nil {
				t.Fatalf("m=%d k=%d: %v", m, k, err)
			}
			if lb := a2a.LowerBounds(set, q); ms.NumReducers() < lb.Reducers {
				t.Fatalf("m=%d k=%d: %d reducers beat the bound %d", m, k, ms.NumReducers(), lb.Reducers)
			}
		}
	}
}

// FuzzEqualSizedDesign drives the equal-sized dispatch with arbitrary
// (m <= 4,096, w, q): Solve is never worse than EqualSized on reducers or on
// communication, nor than the best full plane, and what it returns is valid,
// passes the static audit and respects the lower bounds. Instances whose
// grouping alone would exceed 16,384 reducers are skipped to keep each
// execution short. Each seed is written as the (m, w, q) it decodes to.
func FuzzEqualSizedDesign(f *testing.F) {
	seed := func(m int, w, q core.Size) { f.Add(uint16(m-1), uint8(w-1), uint16(q-1)) }
	seed(1500, 16, 1600)
	seed(80, 1, 20)
	seed(2000, 1, 62)
	seed(120, 1, 8)
	seed(30, 30, 100)
	seed(4, 5, 10)
	seed(1950, 1, 62)
	seed(2049, 1, 62)
	seed(20, 2, 8)
	f.Fuzz(func(t *testing.T, mRaw uint16, wRaw uint8, qRaw uint16) {
		m := int(mRaw)%4096 + 1
		w := core.Size(wRaw) + 1
		q := core.Size(qRaw) + 1
		if n, err := a2a.EqualSizedReducerCount(m, w, q); err == nil && n > 1<<14 {
			return
		}
		checkEqualSizedDispatch(t, m, w, q)
	})
}
