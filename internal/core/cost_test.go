package core

import (
	"math"
	"strings"
	"testing"
)

func schemaFor(t *testing.T, sizes []Size, q Size, groups [][]int) (*InputSet, *MappingSchema) {
	t.Helper()
	set := MustNewInputSet(sizes)
	ms := &MappingSchema{Problem: ProblemA2A, Capacity: q, Algorithm: "test"}
	for _, g := range groups {
		ms.AddReducerA2A(set, g)
	}
	return set, ms
}

func TestSchemaCostBasics(t *testing.T) {
	set, ms := schemaFor(t, []Size{2, 2, 2}, 6, [][]int{{0, 1, 2}})
	c := SchemaCost(ms, set.TotalSize())
	if c.Reducers != 1 {
		t.Errorf("Reducers = %d, want 1", c.Reducers)
	}
	if c.Communication != 6 {
		t.Errorf("Communication = %d, want 6", c.Communication)
	}
	if c.ReplicationRate != 1.0 {
		t.Errorf("ReplicationRate = %v, want 1.0", c.ReplicationRate)
	}
	if c.MaxLoad != 6 || c.MinLoad != 6 {
		t.Errorf("MaxLoad/MinLoad = %d/%d, want 6/6", c.MaxLoad, c.MinLoad)
	}
	if c.LoadStdDev != 0 {
		t.Errorf("LoadStdDev = %v, want 0", c.LoadStdDev)
	}
}

func TestSchemaCostReplication(t *testing.T) {
	// Inputs 0,1,2 each of size 2; three pairwise reducers. Each input is
	// replicated twice, so communication = 2 * total.
	set, ms := schemaFor(t, []Size{2, 2, 2}, 4, [][]int{{0, 1}, {0, 2}, {1, 2}})
	c := SchemaCost(ms, set.TotalSize())
	if c.Communication != 12 {
		t.Errorf("Communication = %d, want 12", c.Communication)
	}
	if c.ReplicationRate != 2.0 {
		t.Errorf("ReplicationRate = %v, want 2.0", c.ReplicationRate)
	}
}

func TestSchemaCostEmpty(t *testing.T) {
	ms := &MappingSchema{Problem: ProblemA2A, Capacity: 4}
	c := SchemaCost(ms, 10)
	if c.Reducers != 0 || c.Communication != 0 || c.ReplicationRate != 0 {
		t.Errorf("empty schema cost = %+v", c)
	}
}

func TestSchemaCostLoadSpread(t *testing.T) {
	_, ms := schemaFor(t, []Size{1, 3}, 4, [][]int{{0}, {1}})
	c := SchemaCost(ms, 4)
	if c.MinLoad != 1 || c.MaxLoad != 3 {
		t.Errorf("Min/Max = %d/%d, want 1/3", c.MinLoad, c.MaxLoad)
	}
	if c.MeanLoad != 2 {
		t.Errorf("MeanLoad = %v, want 2", c.MeanLoad)
	}
	if math.Abs(c.LoadStdDev-1) > 1e-9 {
		t.Errorf("LoadStdDev = %v, want 1", c.LoadStdDev)
	}
}

func TestMakespan(t *testing.T) {
	_, ms := schemaFor(t, []Size{4, 3, 2, 1}, 4, [][]int{{0}, {1}, {2}, {3}})
	// Loads are 4,3,2,1.
	if got := Makespan(ms, 1); got != 10 {
		t.Errorf("Makespan(1) = %d, want 10", got)
	}
	if got := Makespan(ms, 2); got != 5 {
		t.Errorf("Makespan(2) = %d, want 5 (4+1 vs 3+2)", got)
	}
	if got := Makespan(ms, 4); got != 4 {
		t.Errorf("Makespan(4) = %d, want max load 4", got)
	}
	if got := Makespan(ms, 100); got != 4 {
		t.Errorf("Makespan(100) = %d, want 4", got)
	}
	if got := Makespan(ms, 0); got != 0 {
		t.Errorf("Makespan(0) = %d, want 0", got)
	}
}

func TestCostWithWorkers(t *testing.T) {
	set, ms := schemaFor(t, []Size{4, 3, 2, 1}, 4, [][]int{{0}, {1}, {2}, {3}})
	c := CostWithWorkers(ms, set.TotalSize(), 2)
	if c.Workers != 2 {
		t.Errorf("Workers = %d, want 2", c.Workers)
	}
	if c.Makespan != 5 {
		t.Errorf("Makespan = %d, want 5", c.Makespan)
	}
	if c.Reducers != 4 {
		t.Errorf("Reducers = %d, want 4", c.Reducers)
	}
}

func TestCostString(t *testing.T) {
	c := Cost{Reducers: 3, Communication: 12, ReplicationRate: 2, MaxLoad: 4}
	s := c.String()
	if !strings.Contains(s, "reducers=3") || !strings.Contains(s, "comm=12") {
		t.Errorf("Cost.String() = %q", s)
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	const max = Size(math.MaxInt64)
	for _, tc := range []struct{ a, b, add, mul, ceil Size }{
		{a: 7, b: 2, add: 9, mul: 14, ceil: 4},
		{a: 6, b: 3, add: 9, mul: 18, ceil: 2},
		{a: 0, b: 5, add: 5, mul: 0, ceil: 0},
		{a: max, b: 1, add: max, mul: max, ceil: max},
		{a: max - 1, b: 1, add: max, mul: max - 1, ceil: max - 1},
		{a: 6e18, b: 3.5e18, add: max, mul: max, ceil: 2},
		{a: max, b: max, add: max, mul: max, ceil: 1},
		{a: max, b: 2, add: max, mul: max, ceil: max/2 + 1},
	} {
		if got := AddSat(tc.a, tc.b); got != tc.add {
			t.Errorf("AddSat(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.add)
		}
		if got := MulSat(tc.a, tc.b); got != tc.mul {
			t.Errorf("MulSat(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.mul)
		}
		if got := CeilDiv(tc.a, tc.b); got != tc.ceil {
			t.Errorf("CeilDiv(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.ceil)
		}
	}
}
