package a2a_test

import (
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/exec"
)

// checkEqualSizedDispatch holds Solve on m equal inputs of size w to the
// dispatch's promise — never more reducers and never more communication than
// EqualSized — and whatever it returns to validity: ValidateA2A, the
// executor's static audit, and the lower bounds.
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
	if err := got.ValidateA2A(set); err != nil {
		t.Fatalf("m=%d w=%d q=%d: %s: %v", m, w, q, got.Algorithm, err)
	}
	aud, err := exec.NewAuditor(got, m)
	if err == nil {
		err = aud.PreCheck()
	}
	if err != nil {
		t.Fatalf("m=%d w=%d q=%d: %s fails the audit: %v", m, w, q, got.Algorithm, err)
	}
	if lb := a2a.LowerBounds(set, q); m > 1 && (cost.Reducers < lb.Reducers || cost.Communication < lb.Communication) {
		t.Fatalf("m=%d w=%d q=%d: %s beats the lower bounds %+v with %+v", m, w, q, got.Algorithm, lb, cost)
	}
	return got
}

// TestEqualSizedDispatchNeverWorseThanGrouping sweeps m and k and checks
// every schema the equal-sized dispatch returns, counting how often the
// affine plane wins so the sweep is known to reach it.
func TestEqualSizedDispatchNeverWorseThanGrouping(t *testing.T) {
	planes, built := 0, 0
	for _, m := range []int{2, 3, 4, 5, 9, 16, 17, 30, 49, 64, 80, 81, 100, 150, 256, 300, 500, 700, 1000, 1500} {
		for _, k := range []int{2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 30, 40, 50, 64, 100, 150, 200} {
			for _, w := range []core.Size{1, 7} {
				q := core.Size(k)*w + w/2
				if n, _ := a2a.EqualSizedReducerCount(m, w, q); n > 1<<14 {
					continue
				}
				ms := checkEqualSizedDispatch(t, m, w, q)
				built++
				if ms != nil && ms.Algorithm == "a2a/affine-plane" {
					planes++
				}
			}
		}
	}
	if planes == 0 || planes == built {
		t.Fatalf("the plane won %d of %d instances; the sweep does not exercise the choice", planes, built)
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
// communication, and what it returns is valid, passes the static audit and
// respects the lower bounds. Instances whose grouping alone would exceed
// 16,384 reducers are skipped to keep each execution short.
func FuzzEqualSizedDesign(f *testing.F) {
	f.Add(uint16(1500), uint8(16), uint16(1600))
	f.Add(uint16(80), uint8(1), uint16(20))
	f.Add(uint16(2000), uint8(1), uint16(62))
	f.Add(uint16(120), uint8(1), uint16(8))
	f.Add(uint16(30), uint8(30), uint16(100))
	f.Add(uint16(4), uint8(5), uint16(10))
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
