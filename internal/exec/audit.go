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

// trace is the log of processed pairs one execution produces: one
// append-only log (shard) per reducer, filled by the reduce call without any
// synchronization and published once when the call succeeds, so the per-pair
// hot loop touches no atomic and no shared cache line. The logs of one run
// are sections of a single pooled buffer (see compilation.logSection). The
// auditor checks the shards against the schema's promises; tests fabricate
// shards to probe the auditor itself.
//
// A compiled reducer of an audited run also compares its own log with its
// owned-pair list before it publishes, and records the log it found equal in
// checked. The audit takes that verdict for a shard only while the shard is
// still that slice, so the end-of-run check of a healthy run reads one
// verdict per reducer instead of comparing every entry on one core.
type trace struct {
	shards [][]pairEntry // shards[r] is what reducer r processed, in order
	// checked[r], when not empty, is the log reducer r found equal to its
	// owned-pair list when it published it.
	checked [][]pairEntry
}

// pairEntry is one logged pair: for A2A the two input IDs with a < b, for
// X2Y the X-side ID then the Y-side ID.
type pairEntry struct{ a, b int32 }

const pairEntryBytes = 8

// newTrace returns an empty trace for a job of numReducers reducers.
func newTrace(numReducers int) *trace {
	return &trace{shards: make([][]pairEntry, numReducers), checked: make([][]pairEntry, numReducers)}
}

// publish stores the log of a successful reduce call as the reducer's shard.
// A reduce call that fails never publishes; its error fails the run. Reducers
// write distinct shards, and the engine's completion orders those writes
// before the audit's reads, so the sharded form needs no lock.
func (t *trace) publish(reducer int, log []pairEntry) {
	t.shards[reducer] = log
}

// vouched reports whether reducer r's shard is the very slice the reducer
// found equal to its owned-pair list: same first element, same length.
func (t *trace) vouched(r int) bool {
	shard, v := t.shards[r], t.checked[r]
	return len(v) > 0 && len(v) == len(shard) && &v[0] == &shard[0]
}

// pairs returns how many pairs were logged: log entries, which are the
// distinct pairs processed whenever the trace passes the audit.
func (t *trace) pairs() int64 {
	var n int64
	for _, log := range t.shards {
		n += int64(len(log))
	}
	return n
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
// (one CoverSet over reducer indexes per input) that owner lookups run on,
// the per-reducer owner elections by class that the compiled reducers read
// (derived from the rows), the owned-pair lists and the static verdict. It is immutable once built (the lazy parts are
// guarded), so a Compiler hands one index to every run of the same schema; a
// retained index is built over a private copy of the schema, never the
// caller's.
type schemaIndex struct {
	schema *core.MappingSchema
	shape
	// routes holds every input's reducers in stream order: the A2A set, or
	// the X side then the Y side.
	routes [][]int
	// rows are the bitset rows matching routes, in the same stream order.
	rows []core.CoverSet

	// sweepOnce guards owned/ownedEnd, the result of the one ascending
	// reducer sweep every audit of this schema shares (see sweep).
	sweepOnce sync.Once
	owned     []pairEntry
	ownedEnd  []int

	// electOnce guards elections, one per reducer (see elect).
	electOnce sync.Once
	elections []election

	// preOnce/preErr cache PreCheck, which depends only on schema and shape,
	// so runs sharing the index pay for it once.
	preOnce sync.Once
	preErr  error
}

// election is one reducer's owner election by class. Inputs of one class are
// held by the same reducers, so whether this reducer owns a pair depends only
// on the two inputs' classes: bit cb of row ca is set when the rows of the
// A-side local class ca and the B-side local class cb share no reducer below
// this one. The A side is the A2A set, or the X side; the B side is the A2A
// set again, or the Y side. Local classes are numbered per side in order of
// first appearance among the side's sorted members.
type election struct {
	a, b   []int   // sorted members per side (sortedMembers); Y-side IDs for X2Y
	ca, cb []int32 // local class of each member of a and of b
	stride int     // words per bitmap row: one word per 64 B-side local classes
	bits   []uint64
}

// row returns the ownership of A-side member i's pairs.
func (e *election) row(i int) ownerRow {
	start := int(e.ca[i]) * e.stride
	return ownerRow{words: e.bits[start : start+e.stride], cb: e.cb}
}

// ownerRow is one A-side member's row of an election bitmap.
type ownerRow struct {
	words []uint64
	cb    []int32
}

// has reports whether the reducer owns the pair of the row's member and
// B-side member j (an index into the election's b).
func (o *ownerRow) has(j int) bool {
	c := o.cb[j]
	return o.words[c>>6]>>(c&63)&1 != 0
}

// holds reports whether a reducer's copies are exactly its schema members,
// which is when its election applies. Copies arrive sorted and de-duplicated
// per side, so the members must match them one for one.
func (e *election) holds(aRecs, bRecs []Record) bool {
	member := func(r Record, id int) bool { return r.ID == id }
	return slices.EqualFunc(aRecs, e.a, member) && slices.EqualFunc(bRecs, e.b, member)
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

// newSchemaIndex builds the index of a schema over an instance of shape sh:
// an A2A schema reads sh.numA, an X2Y schema sh.numX and sh.numY.
func newSchemaIndex(schema *core.MappingSchema, sh shape) (*schemaIndex, error) {
	if err := checkIDRanges(schema, sh); err != nil {
		return nil, err
	}
	var routes [][]int
	if schema.Problem == core.ProblemA2A {
		routes = assignmentsA2A(schema, sh.numA)
	} else {
		routes = assignmentsX2Y(schema, sh.numX, sh.numY)
	}
	return &schemaIndex{schema: schema, shape: sh, routes: routes, rows: bitRows(routes, schema.NumReducers())}, nil
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
// the order a compiled reducer processes them in. PreCheck prices coverage
// from the list's length, a run cuts its reducers' logs to it, and checkTrace
// compares it with the trace shard by shard, so every audited run of one
// index shares one sweep.
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

// elect derives every reducer's owner election by class, once per index. The
// classes group identical rows; a reducer's bitmap then costs one
// IntersectsBelow per pair of its local classes — for A2A per unordered pair
// — where the per-pair test cost one per pair of members in every run. The
// bitmaps come from the rows and the owned-pair lists from the sweep, so the
// audit's comparison of the two stays a cross-check.
func (idx *schemaIndex) elect() {
	idx.electOnce.Do(func() {
		classOf, numClasses := classesOf(idx.routes)
		local := make([]int32, numClasses) // class -> local class on the side being numbered, or -1
		for c := range local {
			local[c] = -1
		}
		refs := 0
		for r := range idx.schema.Reducers {
			red := &idx.schema.Reducers[r]
			refs += len(red.Inputs) + len(red.XInputs) + len(red.YInputs)
		}
		classes := make([]int32, 0, refs) // every side's local classes, back to back
		// number gives one side's members (stream index id+offset) their
		// local classes and appends each local class's first member to reps.
		number := func(members []int, offset int, reps []int) ([]int32, []int) {
			start := len(classes)
			for _, id := range members {
				c := classOf[id+offset]
				if local[c] < 0 {
					local[c] = int32(len(reps))
					reps = append(reps, id+offset)
				}
				classes = append(classes, local[c])
			}
			for _, s := range reps {
				local[classOf[s]] = -1
			}
			return classes[start:len(classes):len(classes)], reps
		}
		a2a := idx.schema.Problem == core.ProblemA2A
		elections := make([]election, len(idx.schema.Reducers))
		starts := make([]int, len(elections)+1)
		var bits []uint64
		var repsA, repsB []int
		for r := range elections {
			e, red := &elections[r], &idx.schema.Reducers[r]
			if a2a {
				e.a = sortedMembers(red.Inputs)
				e.ca, repsA = number(e.a, 0, repsA[:0])
				e.b, e.cb, repsB = e.a, e.ca, repsA
			} else {
				e.a, e.b = sortedMembers(red.XInputs), sortedMembers(red.YInputs)
				e.ca, repsA = number(e.a, 0, repsA[:0])
				e.cb, repsB = number(e.b, idx.numX, repsB[:0])
			}
			e.stride = (len(repsB) + 63) / 64
			start := len(bits)
			bits = append(bits, make([]uint64, len(repsA)*e.stride)...)
			set := func(ca, cb int) {
				bits[start+ca*e.stride+cb>>6] |= 1 << (cb & 63)
			}
			for ca, sa := range repsA {
				first := 0
				if a2a {
					first = ca // the bitmap is symmetric: test each class pair once
				}
				for cb := first; cb < len(repsB); cb++ {
					if !idx.rows[sa].IntersectsBelow(&idx.rows[repsB[cb]], r) {
						set(ca, cb)
						if a2a {
							set(cb, ca)
						}
					}
				}
			}
			starts[r+1] = len(bits)
		}
		for r := range elections {
			elections[r].bits = bits[starts[r]:starts[r+1]:starts[r+1]]
		}
		idx.elections = elections
	})
}

// election returns reducer r's owner election.
func (idx *schemaIndex) election(r int) *election {
	idx.elect()
	return &idx.elections[r]
}

// classesOf numbers the classes of identical routes and returns every
// input's class, in stream order, and how many classes there are.
func classesOf(routes [][]int) ([]int32, int) {
	order := make([]int32, len(routes))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int { return slices.Compare(routes[i], routes[j]) })
	classOf := make([]int32, len(routes))
	n := 0
	for k, i := range order {
		if k > 0 && !slices.Equal(routes[order[k-1]], routes[i]) {
			n++
		}
		classOf[i] = int32(n)
	}
	if len(routes) == 0 {
		return classOf, 0
	}
	return classOf, n + 1
}

// conforms is the audit's fast replay: the trace is exactly what the schema
// prescribes when every required pair has an owner and every reducer's shard
// equals the sweep's list for that reducer entry for entry and length for
// length — every pair once, at its owner, and nothing else. A shard its
// reducer vouched for has been compared already, on the reducer's goroutine.
func (idx *schemaIndex) conforms(tr *trace) bool {
	idx.sweep()
	if len(idx.owned) != idx.requiredPairCount() || len(tr.shards) != len(idx.ownedEnd) {
		return false
	}
	for r, shard := range tr.shards {
		if !tr.vouched(r) && !slices.Equal(shard, idx.ownedBy(r)) {
			return false
		}
	}
	return true
}

// owner returns the owning reducer of a required pair: the lowest-indexed
// reducer both inputs are assigned to, found as the lowest common set bit of
// the two membership rows, or -1 when they share none. For A2A the arguments
// are two input IDs; for X2Y an X-side and a Y-side ID.
func (idx *schemaIndex) owner(i, j int) int {
	if idx.schema.Problem == core.ProblemX2Y {
		j += idx.numX
	}
	return idx.rows[i].IntersectMin(&idx.rows[j])
}

// Auditor holds the expectations compiled from one schema: the shared
// schema index (per-input reducer assignments as slices and bitset rows). It
// checks a schema before execution (PreCheck); Run audits a completed run
// against the same index.
type Auditor struct {
	idx *schemaIndex
}

// NewAuditor builds the auditor for an A2A schema over numInputs inputs.
func NewAuditor(schema *core.MappingSchema, numInputs int) (*Auditor, error) {
	if schema.Problem != core.ProblemA2A {
		return nil, fmt.Errorf("exec: NewAuditor needs an A2A schema, got %v", schema.Problem)
	}
	idx, err := newSchemaIndex(schema, shape{numA: numInputs})
	if err != nil {
		return nil, err
	}
	return &Auditor{idx: idx}, nil
}

// NewAuditorX2Y builds the auditor for an X2Y schema over numX and numY
// inputs per side.
func NewAuditorX2Y(schema *core.MappingSchema, numX, numY int) (*Auditor, error) {
	if schema.Problem != core.ProblemX2Y {
		return nil, fmt.Errorf("exec: NewAuditorX2Y needs an X2Y schema, got %v", schema.Problem)
	}
	idx, err := newSchemaIndex(schema, shape{numX: numX, numY: numY})
	if err != nil {
		return nil, err
	}
	return &Auditor{idx: idx}, nil
}

// checkIDRanges rejects schemas referencing inputs outside the instance; a
// schema for a different instance is a caller bug, not a conformance finding.
func checkIDRanges(schema *core.MappingSchema, sh shape) error {
	for r, red := range schema.Reducers {
		for _, id := range red.Inputs {
			if id < 0 || id >= sh.numA {
				return fmt.Errorf("%w: reducer %d references input %d (instance has %d)", ErrBadInputs, r, id, sh.numA)
			}
		}
		for _, id := range red.XInputs {
			if id < 0 || id >= sh.numX {
				return fmt.Errorf("%w: reducer %d references X input %d (side has %d)", ErrBadInputs, r, id, sh.numX)
			}
		}
		for _, id := range red.YInputs {
			if id < 0 || id >= sh.numY {
				return fmt.Errorf("%w: reducer %d references Y input %d (side has %d)", ErrBadInputs, r, id, sh.numY)
			}
		}
	}
	return nil
}

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
// Coverage is counted from the owner sweep, eight bytes per covered pair; the
// result is cached on the index, so runs that share one pay for the sweep
// once.
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
	idx.sweep()
	if required := idx.requiredPairCount(); len(idx.owned) != required {
		// Slow path only on failure: name every uncovered pair.
		covered := core.GetCoverSet(required)
		for _, e := range idx.owned {
			covered.Add(idx.pairIndex(int(e.a), int(e.b)))
		}
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

// checkTrace verifies that the run processed every required pair exactly
// once, at its owning reducer. A trace that is exactly what the schema
// prescribes passes on a sequence comparison per shard, or on the verdict of
// the reducer that compared the shard before publishing it; anything else is
// replayed pair by pair, which names every violation.
func (idx *schemaIndex) checkTrace(tr *trace) error {
	if idx.conforms(tr) {
		return nil
	}
	obsSlowReplays.Inc()
	return idx.replay(tr)
}

// replay is the reference check of a trace: from a lookup of the reducers
// whose shards hold each logged pair, it names every required pair that was
// processed other than once at its owner. Logged entries that are not
// required pairs name nothing.
func (idx *schemaIndex) replay(tr *trace) error {
	processedBy := make(map[pairEntry][]int)
	for r, log := range tr.shards {
		for _, e := range log {
			processedBy[e] = append(processedBy[e], r)
		}
	}
	var violations []Violation
	idx.requiredPairs(func(i, j int) {
		owner, got := idx.owner(i, j), processedBy[pairEntry{int32(i), int32(j)}]
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

// checkLoads verifies the engine's measured per-partition loads against the
// exact byte loads the schema's routing prescribes.
func (c *compilation) checkLoads(counters *Counters) error {
	var violations []Violation
	if len(counters.ReducerLoads) != len(c.expectedLoads) {
		violations = append(violations, Violation{
			Err: ErrLoadMismatch, Reducer: -1, A: -1, B: -1,
			Detail: fmt.Sprintf("engine reports %d partitions, schema has %d reducers", len(counters.ReducerLoads), len(c.expectedLoads)),
		})
	} else {
		for r, want := range c.expectedLoads {
			if got := counters.ReducerLoads[r]; got != want {
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

// audit is Run's post-run check: trace conformance plus load conformance,
// with every violation aggregated into one *AuditError.
func (c *compilation) audit(counters *Counters) error {
	var violations []Violation
	for _, err := range []error{c.idx.checkTrace(c.trace), c.checkLoads(counters)} {
		var ae *AuditError
		if errors.As(err, &ae) {
			violations = append(violations, ae.Violations...)
		}
	}
	if len(violations) > 0 {
		return &AuditError{Violations: violations}
	}
	return nil
}
