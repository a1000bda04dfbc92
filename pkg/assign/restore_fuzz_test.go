package assign_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/pkg/assign"
)

// auditClean runs the executor's static audit over the session's live
// schema: every load within capacity, every required pair covered. The audit
// reads the loads the schema declares, so the members' sizes are summed here
// too, in a way that cannot wrap.
func auditClean(t *testing.T, sess *assign.Session, when string) {
	t.Helper()
	snap := sess.Snapshot()
	if len(snap.IDs) == 0 {
		return
	}
	q := snap.Schema.Capacity
	for r, red := range snap.Schema.Reducers {
		var load assign.Size
		for _, in := range red.Inputs {
			if load > q-snap.Sizes[in] {
				t.Fatalf("%s: reducer %d holds more than q=%d", when, r, q)
			}
			load += snap.Sizes[in]
		}
	}
	aud, err := exec.NewAuditor(snap.Schema, len(snap.IDs))
	if err == nil {
		err = aud.PreCheck()
	}
	if err != nil {
		t.Fatalf("%s: session fails the audit: %v", when, err)
	}
}

// refusedStates are serialized states RestoreSession must refuse, each with
// the class its error wraps (nil: any error).
var refusedStates = []struct {
	name  string
	state string
	want  error
}{
	{"reducer over capacity", `{"capacity":10,"next":3,"cursor":0,"drift":0,"version":1,"ids":[0,1,2],"sizes":[6,6,6],"reducers":[{"members":[0,1,2]}],"counters":{}}`, nil},
	{"load wraps past the integer limit", `{"capacity":9000000000000000000,"next":2,"cursor":0,"drift":0,"version":1,"ids":[0,1],"sizes":[5000000000000000000,5000000000000000000],"reducers":[{"members":[0,1]}],"counters":{}}`, core.ErrTotalTooLarge},
	{"uncovered pair", `{"capacity":20,"next":3,"cursor":0,"drift":0,"version":1,"ids":[0,1,2],"sizes":[3,4,5],"reducers":[{"members":[0,1]}],"counters":{}}`, core.ErrPairUncovered},
}

func TestRestoreSessionRefusesBadStates(t *testing.T) {
	pl := assign.NewPlanner(assign.PlannerConfig{})
	for _, tc := range refusedStates {
		var st assign.SessionState
		if err := json.Unmarshal([]byte(tc.state), &st); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sess, err := pl.RestoreSession(&st, nil)
		if err == nil {
			sess.Close()
			t.Errorf("%s: restored", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// FuzzRestoreSession feeds arbitrary bytes, read as a SessionState (what a
// WAL snapshot and a handoff carry), to RestoreSession. Either it refuses
// them, or the session it returns is audit-clean, fingerprints as the state
// it came from, and stays audit-clean through one Add and one Remove.
func FuzzRestoreSession(f *testing.F) {
	pl := assign.NewPlanner(assign.PlannerConfig{})
	live, err := pl.NewSession(context.Background(), assign.A2A([]assign.Size{5, 3, 7, 2, 6}), assign.Capacity(20))
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := live.Add(4); err != nil {
		f.Fatal(err)
	}
	state, err := json.Marshal(live.State())
	live.Close()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(state)
	for _, tc := range refusedStates {
		f.Add([]byte(tc.state))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var st assign.SessionState
		if json.Unmarshal(data, &st) != nil {
			return
		}
		want := st.Fingerprint()
		sess, err := pl.RestoreSession(&st, nil)
		if err != nil {
			return
		}
		defer sess.Close()
		auditClean(t, sess, "restored")
		if got := sess.State().Fingerprint(); got != want {
			t.Fatalf("restored session fingerprints %#x, its state %#x", got, want)
		}
		// A refused delta leaves the session as it was; either way the
		// schema must still pass.
		_, _, _ = sess.Add(1)
		if ids := sess.Snapshot().IDs; len(ids) > 0 {
			_, _ = sess.Remove(ids[0])
		}
		auditClean(t, sess, "after one add and one remove")
	})
}
