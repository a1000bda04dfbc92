package exec

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
)

// Conformance violation classes. Every violation found by the auditor wraps
// exactly one of these sentinels, so callers can classify failures with
// errors.Is even when several violations are aggregated.
var (
	// ErrOverCapacity flags a reducer whose declared load exceeds the
	// schema's capacity q.
	ErrOverCapacity = errors.New("exec: reducer load exceeds the schema capacity")
	// ErrUncoveredPair flags a required pair that no reducer owns (statically:
	// the inputs share no reducer; dynamically: the pair was never processed).
	ErrUncoveredPair = errors.New("exec: required pair is not covered")
	// ErrDuplicatePair flags a required pair processed more than once.
	ErrDuplicatePair = errors.New("exec: required pair processed more than once")
	// ErrWrongOwner flags a pair processed at a reducer that is not its owner.
	ErrWrongOwner = errors.New("exec: pair processed at a non-owning reducer")
	// ErrLoadMismatch flags a reducer whose measured engine load differs from
	// the load the schema's routing prescribes.
	ErrLoadMismatch = errors.New("exec: achieved reducer load differs from the schema's routing")
)

// Violation is one conformance failure.
type Violation struct {
	// Err is the violation's class sentinel (one of the errors above).
	Err error
	// Reducer is the reducer involved, or -1 when none is.
	Reducer int
	// A and B identify the pair involved (input IDs; for X2Y, A is the X-side
	// ID and B the Y-side ID), or -1 when no pair is involved.
	A, B int
	// Detail is a human-readable elaboration.
	Detail string
}

// Error implements error.
func (v Violation) Error() string {
	return fmt.Sprintf("%v: %s", v.Err, v.Detail)
}

// Unwrap exposes the class sentinel to errors.Is.
func (v Violation) Unwrap() error { return v.Err }

// AuditError aggregates every violation found by one audit pass.
type AuditError struct {
	Violations []Violation
}

// Error implements error.
func (e *AuditError) Error() string {
	msgs := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		msgs[i] = v.Error()
	}
	return fmt.Sprintf("%d conformance violation(s): %s", len(e.Violations), strings.Join(msgs, "; "))
}

// Unwrap exposes the individual violations, so errors.Is matches any class
// present in the aggregate.
func (e *AuditError) Unwrap() []error {
	errs := make([]error, len(e.Violations))
	for i := range e.Violations {
		errs[i] = e.Violations[i]
	}
	return errs
}

// Trace is the log of processed pairs one execution produces. The compiled
// reducers log every pair they process; the auditor replays the log against
// the schema's promises. Tests may also fabricate traces to probe the auditor
// itself.
//
// A trace has exactly two forms. The executor writes the sharded form: one
// append-only log per reducer, filled by the reduce call without any
// synchronization and published once when the call succeeds, so the per-pair
// hot loop touches no atomic and no shared cache line. The logs of one run
// are sections of a single pooled buffer (see compilation.logSection).
// NewTrace builds the sparse form — a mutex-guarded map from pair to the
// reducers that processed it — which fabricated traces use and which is the
// one reference representation: whenever the sharded form is not exactly what
// the schema prescribes, CheckTrace converts it to the sparse form and runs
// the generic check on that.
type Trace struct {
	mu     sync.Mutex       // guards pairs
	pairs  map[[2]int][]int // sparse form: pair -> reducers that processed it
	shards [][]pairEntry    // sharded form: shards[r] is what reducer r processed, in order
}

// pairEntry is one logged pair: for A2A the two input IDs with a < b, for
// X2Y the X-side ID then the Y-side ID.
type pairEntry struct{ a, b int32 }

const pairEntryBytes = 8

// NewTrace returns an empty sparse trace.
func NewTrace() *Trace {
	return &Trace{pairs: make(map[[2]int][]int)}
}

// newShardedTrace returns an empty sharded trace for a job of numReducers
// reducers.
func newShardedTrace(numReducers int) *Trace {
	return &Trace{shards: make([][]pairEntry, numReducers)}
}

// Record logs into a sparse trace that the given reducer processed the pair
// (a, b). For A2A pairs the caller passes a < b; for X2Y, a is the X-side ID
// and b the Y-side ID.
func (t *Trace) Record(reducer, a, b int) {
	t.mu.Lock()
	t.pairs[[2]int{a, b}] = append(t.pairs[[2]int{a, b}], reducer)
	t.mu.Unlock()
}

// publish stores the log of a successful reduce call as the reducer's shard.
// A reduce call that fails never publishes; its error fails the run. Reducers
// write distinct shards, and the engine's completion orders those writes
// before the audit's reads, so the sharded form needs no lock.
func (t *Trace) publish(reducer int, log []pairEntry) {
	t.shards[reducer] = log
}

// Pairs returns how many pairs were logged: distinct pairs for the sparse
// form, log entries for the sharded form (the same number whenever the trace
// passes the audit).
func (t *Trace) Pairs() int64 {
	if t.shards == nil {
		t.mu.Lock()
		defer t.mu.Unlock()
		return int64(len(t.pairs))
	}
	var n int64
	for _, log := range t.shards {
		n += int64(len(log))
	}
	return n
}

// sparse converts a sharded trace to the sparse reference form.
func (t *Trace) sparse() *Trace {
	s := NewTrace()
	for r, log := range t.shards {
		for _, e := range log {
			p := [2]int{int(e.a), int(e.b)}
			s.pairs[p] = append(s.pairs[p], r)
		}
	}
	return s
}

// processedBy returns the reducers a sparse trace holds for the pair.
func (t *Trace) processedBy(a, b int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pairs[[2]int{a, b}]
}

// traceLogs recycles the buffers runs cut their per-reducer logs from (eight
// bytes per required pair, which a fresh allocation would also have to
// clear). The buffers are held through pointers so Put does not allocate a
// slice header per run.
var traceLogs sync.Pool

// getTraceLog returns a buffer of n entries with arbitrary contents: every
// section is appended to from length zero, so nothing stale is ever read.
func getTraceLog(n int) []pairEntry {
	if p, _ := traceLogs.Get().(*[]pairEntry); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]pairEntry, n)
}

// putTraceLog gives a buffer back once nothing reads the trace cut from it
// any more. One larger than the compile cache's bound is left to the
// collector, so the pool never pins more than a cached index may.
func putTraceLog(log []pairEntry) {
	if int64(cap(log))*pairEntryBytes <= maxCacheBytes {
		traceLogs.Put(&log)
	}
}

// shape is the instance a schema is executed over: the size of the A2A set,
// or of the X and Y sides.
type shape struct{ numA, numX, numY int }

// schemaIndex holds everything derived from a schema and an instance shape
// that is independent of the request's payload bytes: the per-input reducer
// assignment slices the engine routes copies along, the bitset membership rows
// (one CoverSet over reducer indexes per input) that owner election, coverage
// checks, and trace replay run on, the owned-pair lists and the static
// verdict. It is immutable once built (the lazy parts are guarded), so a
// Compiler hands one index to every run of the same schema; a retained index
// is built over a private copy of the schema, never the caller's.
type schemaIndex struct {
	schema *core.MappingSchema
	shape
	// routes holds every input's reducers in stream order: the A2A set, or
	// the X side then the Y side.
	routes [][]int
	// aBits/xBits/yBits are the bitset rows matching the assignments.
	aBits, xBits, yBits []core.CoverSet
	// compiled marks an index built for a run (newSchemaIndex), which needs
	// the owned-pair lists anyway, so its PreCheck counts them; an auditor
	// built without a run has a static check that lists no pair.
	compiled bool

	// sweepOnce guards owned/ownedEnd, the result of the one ascending
	// reducer sweep every audit of this schema shares (see sweep).
	sweepOnce sync.Once
	owned     []pairEntry
	ownedEnd  []int

	// preOnce/preErr cache PreCheck, which depends only on schema and shape,
	// so runs sharing the index pay for it once.
	preOnce sync.Once
	preErr  error
}

// bitRows converts assignment slices to bitset rows over numReducers.
func bitRows(assign [][]int, numReducers int) []core.CoverSet {
	rows := make([]core.CoverSet, len(assign))
	for i, rs := range assign {
		rows[i].Reset(numReducers)
		rows[i].AddAll(rs)
	}
	return rows
}

// assignmentsA2A inverts an A2A schema: out[id] lists, in increasing order,
// the reducers holding input id.
func assignmentsA2A(ms *core.MappingSchema, numInputs int) [][]int {
	return invert(ms.Reducers, numInputs, func(red *core.Reducer, add func(int)) {
		for _, id := range red.Inputs {
			add(id)
		}
	})
}

// assignmentsX2Y inverts an X2Y schema into one list in stream order: X
// input id at id, Y input id at numX+id.
func assignmentsX2Y(ms *core.MappingSchema, numX, numY int) [][]int {
	return invert(ms.Reducers, numX+numY, func(red *core.Reducer, add func(int)) {
		for _, id := range red.XInputs {
			if id < numX {
				add(id)
			}
		}
		for _, id := range red.YInputs {
			if id >= 0 && id < numY {
				add(numX + id)
			}
		}
	})
}

// invert lists, for each of the n inputs, the reducers whose members
// include it, in increasing order; members calls add with the stream index
// of every member of a reducer, and indexes outside [0, n) are skipped. A
// counting pass sizes every list first, so the lists are cut from one
// backing array instead of being grown one append at a time.
func invert(reducers []core.Reducer, n int, members func(red *core.Reducer, add func(int))) [][]int {
	counts := make([]int, n)
	total := 0
	for r := range reducers {
		members(&reducers[r], func(i int) {
			if i >= 0 && i < n {
				counts[i]++
				total++
			}
		})
	}
	out := make([][]int, n)
	backing := make([]int, total)
	for i, c := range counts {
		if c > 0 { // an unassigned input keeps a nil list
			out[i], backing = backing[:0:c], backing[c:]
		}
	}
	for r := range reducers {
		members(&reducers[r], func(i int) {
			if i >= 0 && i < n {
				out[i] = append(out[i], r)
			}
		})
	}
	return out
}

// newSchemaIndexA2A builds the shared index for an A2A schema over numInputs.
func newSchemaIndexA2A(schema *core.MappingSchema, numInputs int) (*schemaIndex, error) {
	if schema.Problem != core.ProblemA2A {
		return nil, fmt.Errorf("exec: NewAuditor needs an A2A schema, got %v", schema.Problem)
	}
	if err := checkIDRanges(schema, numInputs, 0, 0); err != nil {
		return nil, err
	}
	assign := assignmentsA2A(schema, numInputs)
	return &schemaIndex{
		schema: schema,
		shape:  shape{numA: numInputs},
		routes: assign,
		aBits:  bitRows(assign, schema.NumReducers()),
	}, nil
}

// newSchemaIndexX2Y builds the shared index for an X2Y schema.
func newSchemaIndexX2Y(schema *core.MappingSchema, numX, numY int) (*schemaIndex, error) {
	if schema.Problem != core.ProblemX2Y {
		return nil, fmt.Errorf("exec: NewAuditorX2Y needs an X2Y schema, got %v", schema.Problem)
	}
	if err := checkIDRanges(schema, 0, numX, numY); err != nil {
		return nil, err
	}
	routes := assignmentsX2Y(schema, numX, numY)
	n := schema.NumReducers()
	return &schemaIndex{
		schema: schema,
		shape:  shape{numX: numX, numY: numY},
		routes: routes,
		xBits:  bitRows(routes[:numX], n), yBits: bitRows(routes[numX:], n),
	}, nil
}

// newSchemaIndex builds the index of a compiled run.
func newSchemaIndex(schema *core.MappingSchema, sh shape) (*schemaIndex, error) {
	var idx *schemaIndex
	var err error
	if schema.Problem == core.ProblemA2A {
		idx, err = newSchemaIndexA2A(schema, sh.numA)
	} else {
		idx, err = newSchemaIndexX2Y(schema, sh.numX, sh.numY)
	}
	if err != nil {
		return nil, err
	}
	idx.compiled = true
	return idx, nil
}

// requiredPairCount returns how many pairs the instance requires covered.
func (idx *schemaIndex) requiredPairCount() int {
	if idx.schema.Problem == core.ProblemA2A {
		return idx.numA * (idx.numA - 1) / 2
	}
	return idx.numX * idx.numY
}

// pairIndex maps a required pair to its dense offset: the strictly-upper
// triangle for A2A (i < j), the full grid for X2Y.
func (idx *schemaIndex) pairIndex(i, j int) int {
	if idx.schema.Problem == core.ProblemA2A {
		return i*(2*idx.numA-i-1)/2 + (j - i - 1)
	}
	return i*idx.numY + j
}

// sweep derives the owner of every pair the schema covers, once per index,
// by scanning reducers in ascending index order: the first reducer containing
// a pair is, by definition, the pair's owning reducer. This replaces the
// per-pair set intersections of the old verification loop (O(m² ·
// replication) work) with O(Σ |reducer members|²) work at O(1) per visit.
//
// The result is kept as one flat list grouped by owner: owned[ownedEnd[r-1]:
// ownedEnd[r]] holds reducer r's pairs in sorted-member order (members
// ascending and de-duplicated; for X2Y, X-side outer and Y-side inner) —
// the order a compiled reducer processes them in. A compiled run's PreCheck
// prices coverage from the list's length, the run cuts its reducers' logs to
// it, and CheckTrace compares it with the trace shard by shard, so every
// audited run of one index shares one sweep.
func (idx *schemaIndex) sweep() {
	idx.sweepOnce.Do(func() {
		required := idx.requiredPairCount()
		covered := core.GetCoverSet(required)
		defer core.PutCoverSet(covered)
		owned := make([]pairEntry, 0, required)
		ends := make([]int, len(idx.schema.Reducers))
		claim := func(p, i, j int) {
			if !covered.Contains(p) {
				covered.Add(p)
				owned = append(owned, pairEntry{int32(i), int32(j)})
			}
		}
		for r, red := range idx.schema.Reducers {
			if idx.schema.Problem == core.ProblemA2A {
				members := sortedMembers(red.Inputs)
				for a, i := range members {
					base := idx.pairIndex(i, i+1) - (i + 1) // pairIndex(i, j) == base + j
					for _, j := range members[a+1:] {
						claim(base+j, i, j)
					}
				}
			} else {
				xs, ys := sortedMembers(red.XInputs), sortedMembers(red.YInputs)
				for _, x := range xs {
					for _, y := range ys {
						claim(idx.pairIndex(x, y), x, y)
					}
				}
			}
			ends[r] = len(owned)
		}
		idx.owned, idx.ownedEnd = owned, ends
	})
}

// cover marks in covered, which starts empty, every required pair some
// reducer covers. It is the sweep without owners: it lists no pair, which is
// all a static check needs — C(m,2) bits instead of eight bytes per pair.
func (idx *schemaIndex) cover(covered *core.CoverSet) {
	for _, red := range idx.schema.Reducers {
		if idx.schema.Problem == core.ProblemA2A {
			members := sortedMembers(red.Inputs)
			for a, i := range members {
				base := idx.pairIndex(i, i+1) - (i + 1) // pairIndex(i, j) == base + j
				for _, j := range members[a+1:] {
					covered.Add(base + j)
				}
			}
		} else {
			xs, ys := sortedMembers(red.XInputs), sortedMembers(red.YInputs)
			for _, x := range xs {
				for _, y := range ys {
					covered.Add(idx.pairIndex(x, y))
				}
			}
		}
	}
}

// sortedMembers returns a reducer's member list ascending and without
// duplicates: the list itself when it already is (every solver emits such
// lists), a repaired copy when a corrupted schema lists members out of order
// or twice.
func sortedMembers(ids []int) []int {
	for k := 1; k < len(ids); k++ {
		if ids[k-1] >= ids[k] {
			out := slices.Clone(ids)
			slices.Sort(out)
			return slices.Compact(out)
		}
	}
	return ids
}

// ownedRange returns where reducer r's pairs lie in the sweep's list.
func (idx *schemaIndex) ownedRange(r int) (start, end int) {
	idx.sweep()
	if r > 0 {
		start = idx.ownedEnd[r-1]
	}
	return start, idx.ownedEnd[r]
}

// ownedBy returns the pairs the sweep assigns to reducer r, in the order a
// compiled reducer processes them.
func (idx *schemaIndex) ownedBy(r int) []pairEntry {
	start, end := idx.ownedRange(r)
	return idx.owned[start:end]
}

// conforms is the audit's fast replay: the trace is exactly what the schema
// prescribes when every required pair has an owner and every reducer's shard
// equals the sweep's list for that reducer entry for entry and length for
// length — every pair once, at its owner, and nothing else.
func (idx *schemaIndex) conforms(shards [][]pairEntry) bool {
	idx.sweep()
	if len(idx.owned) != idx.requiredPairCount() || len(shards) != len(idx.ownedEnd) {
		return false
	}
	for r := range shards {
		if !slices.Equal(shards[r], idx.ownedBy(r)) {
			return false
		}
	}
	return true
}

// owner returns the owning reducer of a required pair: the lowest-indexed
// reducer both inputs are assigned to, found as the lowest common set bit of
// the two membership rows.
func (idx *schemaIndex) owner(i, j int) int {
	if idx.schema.Problem == core.ProblemA2A {
		return idx.aBits[i].IntersectMin(&idx.aBits[j])
	}
	return idx.xBits[i].IntersectMin(&idx.yBits[j])
}

// Auditor holds the expectations compiled from one schema: the shared
// schema index (per-input reducer assignments as slices and bitset rows)
// plus, when compiled by Run, the exact per-reducer engine byte loads the
// routing must produce. It checks a schema before execution (PreCheck) and a
// completed run after (Check).
type Auditor struct {
	idx *schemaIndex
	// expectedLoads, when non-nil, enables the engine-load conformance check.
	expectedLoads []int64
}

// NewAuditor builds the auditor for an A2A schema over numInputs inputs.
func NewAuditor(schema *core.MappingSchema, numInputs int) (*Auditor, error) {
	idx, err := newSchemaIndexA2A(schema, numInputs)
	if err != nil {
		return nil, err
	}
	return &Auditor{idx: idx}, nil
}

// NewAuditorX2Y builds the auditor for an X2Y schema over numX and numY
// inputs per side.
func NewAuditorX2Y(schema *core.MappingSchema, numX, numY int) (*Auditor, error) {
	idx, err := newSchemaIndexX2Y(schema, numX, numY)
	if err != nil {
		return nil, err
	}
	return &Auditor{idx: idx}, nil
}

// checkIDRanges rejects schemas referencing inputs outside the instance; a
// schema for a different instance is a caller bug, not a conformance finding.
func checkIDRanges(schema *core.MappingSchema, numA, numX, numY int) error {
	for r, red := range schema.Reducers {
		for _, id := range red.Inputs {
			if id < 0 || id >= numA {
				return fmt.Errorf("%w: reducer %d references input %d (instance has %d)", ErrBadInputs, r, id, numA)
			}
		}
		for _, id := range red.XInputs {
			if id < 0 || id >= numX {
				return fmt.Errorf("%w: reducer %d references X input %d (side has %d)", ErrBadInputs, r, id, numX)
			}
		}
		for _, id := range red.YInputs {
			if id < 0 || id >= numY {
				return fmt.Errorf("%w: reducer %d references Y input %d (side has %d)", ErrBadInputs, r, id, numY)
			}
		}
	}
	return nil
}

// Owner returns the owning reducer of a required pair: the lowest-indexed
// reducer both inputs are assigned to, or -1 when they share none. For A2A
// the arguments are two input IDs; for X2Y an X-side and a Y-side ID.
func (a *Auditor) Owner(i, j int) int { return a.idx.owner(i, j) }

// requiredPairs invokes fn for every required pair of the instance.
func (idx *schemaIndex) requiredPairs(fn func(i, j int)) {
	if idx.schema.Problem == core.ProblemA2A {
		for i := 0; i < idx.numA; i++ {
			for j := i + 1; j < idx.numA; j++ {
				fn(i, j)
			}
		}
		return
	}
	for x := 0; x < idx.numX; x++ {
		for y := 0; y < idx.numY; y++ {
			fn(x, y)
		}
	}
}

// PreCheck verifies the schema's own promises before anything runs: every
// declared reducer load is within the capacity q and every required pair has
// an owning reducer. It returns an *AuditError listing every violation.
// The result is cached on the index, so runs that share one pay for the
// pair sweep once. On an auditor built by NewAuditor or NewAuditorX2Y, which
// no run follows, it only counts the covered pairs and lists none.
func (a *Auditor) PreCheck() error { return a.idx.preCheck() }

// preCheck is PreCheck's verdict on the index, computed once by staticCheck.
func (idx *schemaIndex) preCheck() error {
	idx.preOnce.Do(func() { idx.preErr = idx.staticCheck() })
	return idx.preErr
}

func (idx *schemaIndex) staticCheck() error {
	var violations []Violation
	for r, red := range idx.schema.Reducers {
		if red.Load > idx.schema.Capacity {
			violations = append(violations, Violation{
				Err: ErrOverCapacity, Reducer: r, A: -1, B: -1,
				Detail: fmt.Sprintf("reducer %d declares load %d > q=%d", r, red.Load, idx.schema.Capacity),
			})
		}
	}
	required := idx.requiredPairCount()
	var covered *core.CoverSet
	if idx.compiled {
		// A compiled run needs the owned-pair lists anyway: count them.
		idx.sweep()
		if len(idx.owned) != required {
			covered = core.GetCoverSet(required)
			for _, e := range idx.owned {
				covered.Add(idx.pairIndex(int(e.a), int(e.b)))
			}
		}
	} else {
		// A static check needs only the count: mark the pairs, list none.
		covered = core.GetCoverSet(required)
		if idx.cover(covered); covered.Count() == required {
			core.PutCoverSet(covered)
			covered = nil
		}
	}
	if covered != nil {
		// Slow path only on failure: name every uncovered pair.
		idx.requiredPairs(func(i, j int) {
			if !covered.Contains(idx.pairIndex(i, j)) {
				violations = append(violations, Violation{
					Err: ErrUncoveredPair, Reducer: -1, A: i, B: j,
					Detail: fmt.Sprintf("pair (%d,%d) shares no reducer", i, j),
				})
			}
		})
		core.PutCoverSet(covered)
	}
	if len(violations) > 0 {
		return &AuditError{Violations: violations}
	}
	return nil
}

// CheckTrace verifies that the run processed every required pair exactly
// once, at its owning reducer. A sharded trace that is exactly what the
// schema prescribes passes on a sequence comparison; anything else is
// converted to the sparse form and named pair by pair.
func (a *Auditor) CheckTrace(tr *Trace) error {
	if tr.shards != nil {
		if a.idx.conforms(tr.shards) {
			return nil
		}
		obsSlowReplays.Inc()
		tr = tr.sparse()
	}
	var violations []Violation
	a.idx.requiredPairs(func(i, j int) {
		owner, got := a.idx.owner(i, j), tr.processedBy(i, j)
		switch {
		case len(got) == 0:
			violations = append(violations, Violation{
				Err: ErrUncoveredPair, Reducer: owner, A: i, B: j,
				Detail: fmt.Sprintf("pair (%d,%d) was never processed (owner %d)", i, j, owner),
			})
		case len(got) > 1:
			violations = append(violations, Violation{
				Err: ErrDuplicatePair, Reducer: owner, A: i, B: j,
				Detail: fmt.Sprintf("pair (%d,%d) processed by reducers %v", i, j, got),
			})
		case got[0] != owner:
			violations = append(violations, Violation{
				Err: ErrWrongOwner, Reducer: got[0], A: i, B: j,
				Detail: fmt.Sprintf("pair (%d,%d) processed at reducer %d, owner is %d", i, j, got[0], owner),
			})
		}
	})
	if len(violations) > 0 {
		return &AuditError{Violations: violations}
	}
	return nil
}

// CheckLoads verifies the engine's measured per-partition loads against the
// exact byte loads the schema's routing prescribes. It is a no-op when the
// auditor was built without expected loads (i.e. outside Run).
func (a *Auditor) CheckLoads(c *Counters) error {
	if a.expectedLoads == nil {
		return nil
	}
	var violations []Violation
	if len(c.ReducerLoads) != len(a.expectedLoads) {
		violations = append(violations, Violation{
			Err: ErrLoadMismatch, Reducer: -1, A: -1, B: -1,
			Detail: fmt.Sprintf("engine reports %d partitions, schema has %d reducers", len(c.ReducerLoads), len(a.expectedLoads)),
		})
	} else {
		for r, want := range a.expectedLoads {
			if got := c.ReducerLoads[r]; got != want {
				violations = append(violations, Violation{
					Err: ErrLoadMismatch, Reducer: r, A: -1, B: -1,
					Detail: fmt.Sprintf("reducer %d received %d bytes, routing prescribes %d", r, got, want),
				})
			}
		}
	}
	if len(violations) > 0 {
		return &AuditError{Violations: violations}
	}
	return nil
}

// Check runs the full post-run audit: trace conformance plus load
// conformance, with every violation aggregated into one *AuditError.
func (a *Auditor) Check(tr *Trace, c *Counters) error {
	var violations []Violation
	collect := func(err error) {
		var ae *AuditError
		if errors.As(err, &ae) {
			violations = append(violations, ae.Violations...)
		}
	}
	collect(a.CheckTrace(tr))
	collect(a.CheckLoads(c))
	if len(violations) > 0 {
		return &AuditError{Violations: violations}
	}
	return nil
}
