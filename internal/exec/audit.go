package exec

import (
	"errors"
	"fmt"
	"math/bits"
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

// errSplitClass fails PreCheck when a reducer holds some but not all of the
// members of a class of identical routes on one side. The classes are built
// from the routes, so only a fault in the index itself produces one.
var errSplitClass = errors.New("exec: reducer holds part of an input class")

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

// auditError aggregates violations into an *AuditError, or returns nil when
// there is none.
func auditError(violations []Violation) error {
	if len(violations) == 0 {
		return nil
	}
	return &AuditError{Violations: violations}
}

// trace is what one execution's reducers processed: per reducer a clean flag
// (it processed exactly its owned pairs, in order) or a log, set once by its
// reduce call when the call succeeds (see compilation.reduce). Reducers write
// distinct entries and the engine's completion orders those writes before
// the audit's reads, so the per-pair hot loop touches no lock, no atomic and
// no shared cache line. Tests fabricate traces to probe the auditor itself.
type trace struct {
	shards [][]pairEntry // shards[r] is what reducer r processed, in order, unless clean[r]
	clean  []bool        // clean[r]: reducer r processed exactly its owned pairs, in order
}

// pairEntry is one logged pair: for A2A the two input IDs with a < b, for
// X2Y the X-side ID then the Y-side ID.
type pairEntry struct{ a, b int32 }

// newTrace returns an empty trace for a job of numReducers reducers.
func newTrace(numReducers int) *trace {
	return &trace{shards: make([][]pairEntry, numReducers), clean: make([]bool, numReducers)}
}

// pairs returns how many pairs were processed by the index's reducers: the
// owned pairs of the clean ones and the log entries of the others, which are
// the distinct pairs processed whenever the trace passes the audit.
func (t *trace) pairs(idx *schemaIndex) int64 {
	var n int64
	for r, log := range t.shards {
		if t.clean[r] {
			n += int64(idx.election(r).pairs)
		} else {
			n += int64(len(log))
		}
	}
	return n
}

// shape is the instance a schema is executed over: the size of the A2A set,
// or of the X and Y sides.
type shape struct{ numA, numX, numY int }

// schemaIndex holds everything derived from a schema and an instance shape
// that is independent of the request's payload bytes: the per-input reducer
// assignment slices the engine routes copies along, the bitset membership rows
// (one CoverSet over reducer indexes per input) that owner lookups run on,
// the classes of identical rows, the per-reducer elections and owned blocks
// by class, and the static verdict. It is immutable once built (the lazy
// parts are guarded), so a Compiler hands one index to every run of the same
// schema; a retained index is built over a private copy of the schema, never
// the caller's.
type schemaIndex struct {
	schema *core.MappingSchema
	shape
	// routes holds every input's reducers in stream order: the A2A set, or
	// the X side then the Y side.
	routes [][]int
	// rows are the bitset rows matching routes, in the same stream order.
	rows []core.CoverSet
	// copies[r] is how many copies the routes send reducer r.
	copies []int
	// classOf numbers the classes of identical routes, every input's class
	// in stream order; numClasses counts them.
	classOf    []int32
	numClasses int

	// deriveOnce guards what derive computes: one election per reducer, the
	// number of pairs the reducers own between them, and the first reducer
	// found holding part of a class (split), if any.
	deriveOnce   sync.Once
	elections    []election
	coveredPairs int
	split        error

	// preOnce/preErr cache PreCheck, which depends only on schema and shape,
	// so runs sharing the index pay for it once.
	preOnce sync.Once
	preErr  error
}

// election is one reducer's ownership by class. Inputs of one class are held
// by the same reducers, so whether this reducer owns a pair depends only on
// the two inputs' classes: bit cb of row ca of a bitmap describes the A-side
// local class ca (of the A2A set, or the X side) and the B-side local class
// cb (of the A2A set, or the Y side), numbered per side in order of first
// appearance among the side's sorted members. bits, the election the reducer
// runs on, is set when the two classes' rows share no reducer below this
// one; blocks, the owned blocks it is checked against, when the ascending
// scan of the schema's member lists meets the two classes here first.
type election struct {
	a, b   []int   // sorted members per side (sortedMembers); Y-side IDs for X2Y
	ca, cb []int32 // local class of each member of a and of b
	stride int     // words per bitmap row: one word per 64 B-side local classes
	bits   []uint64
	blocks []uint64
	pairs  int // pairs in the owned blocks
}

// row returns A-side member i's row of one of the election's bitmaps, bits
// or blocks.
func (e *election) row(i int, bitmap []uint64) ownerRow {
	start := int(e.ca[i]) * e.stride
	return ownerRow{words: bitmap[start : start+e.stride], cb: e.cb}
}

// ownerRow is one A-side member's row of an election bitmap.
type ownerRow struct {
	words []uint64
	cb    []int32
}

// has reports whether the row's bit for the pair of its member and B-side
// member j (an index into the election's b) is set.
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
	copies := make([]int, len(schema.Reducers))
	for r, red := range schema.Reducers {
		copies[r] = len(red.Inputs) + len(red.XInputs) + len(red.YInputs) // checkIDRanges leaves one side empty
	}
	classOf, numClasses := classesOf(routes)
	return &schemaIndex{
		schema: schema, shape: sh, routes: routes, rows: bitRows(routes, len(copies)), copies: copies,
		classOf: classOf, numClasses: numClasses,
	}, nil
}

// requiredPairCount returns how many pairs the instance requires covered.
func (idx *schemaIndex) requiredPairCount() int {
	if idx.schema.Problem == core.ProblemA2A {
		return idx.numA * (idx.numA - 1) / 2
	}
	return idx.numX * idx.numY
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

// derive computes every reducer's election, once per index, in one ascending
// pass over the reducers. Each bitmap costs one step per pair of the
// reducer's local classes (for A2A per unordered pair): for bits one
// IntersectsBelow of the two classes' rows, for blocks one look at a
// transient set of the global class pairs met below; the first reducer
// holding two classes owns every pair of their members, and pairs counts
// them. The pass also checks that every class a reducer holds is there whole,
// on that side: that makes a block exactly its classes' pairs, anchored in
// the member lists. split records the first reducer holding part of one.
func (idx *schemaIndex) derive() {
	idx.deriveOnce.Do(func() {
		a2a, n := idx.schema.Problem == core.ProblemA2A, idx.numClasses
		size := make([]int32, 2*n) // class g's members: on the A side at g, on the Y side at n+g
		for i, g := range idx.classOf {
			if !a2a && i >= idx.numX {
				g += int32(n)
			}
			size[g]++
		}
		local := slices.Repeat([]int32{-1}, n) // class -> local class on the side being numbered, or -1
		refs := 0
		for r := range idx.schema.Reducers {
			red := &idx.schema.Reducers[r]
			refs += len(red.Inputs) + len(red.XInputs) + len(red.YInputs)
		}
		classes := make([]int32, 0, refs) // every side's local classes, back to back
		// number gives reducer r's members on one side (stream index
		// id+offset) their local classes, appends each one's first member to
		// reps and its member count to counts, and checks the counts.
		number := func(r int, members []int, offset int, sizes []int32, reps []int, counts []int32) ([]int32, []int, []int32) {
			start := len(classes)
			for _, id := range members {
				c := idx.classOf[id+offset]
				if local[c] < 0 {
					local[c] = int32(len(reps))
					reps, counts = append(reps, id+offset), append(counts, 0)
				}
				counts[local[c]]++
				classes = append(classes, local[c])
			}
			for c, s := range reps {
				g := idx.classOf[s]
				local[g] = -1
				if counts[c] != sizes[g] && idx.split == nil {
					idx.split = fmt.Errorf("%w: reducer %d holds %d of the %d members of the class of stream input %d", errSplitClass, r, counts[c], sizes[g], s)
				}
			}
			return classes[start:len(classes):len(classes)], reps, counts
		}
		covered := core.GetCoverSet(n * n)
		defer core.PutCoverSet(covered)
		elections := make([]election, len(idx.schema.Reducers))
		starts := make([]int, len(elections)+1)
		var backing []uint64
		var repsA, repsB []int
		var countA, countB []int32
		for r := range elections {
			e, red := &elections[r], &idx.schema.Reducers[r]
			if a2a {
				e.a = sortedMembers(red.Inputs)
				e.ca, repsA, countA = number(r, e.a, 0, size[:n], repsA[:0], countA[:0])
				e.b, e.cb, repsB, countB = e.a, e.ca, repsA, countA
			} else {
				e.a, e.b = sortedMembers(red.XInputs), sortedMembers(red.YInputs)
				e.ca, repsA, countA = number(r, e.a, 0, size[:n], repsA[:0], countA[:0])
				e.cb, repsB, countB = number(r, e.b, idx.numX, size[n:], repsB[:0], countB[:0])
			}
			e.stride = (len(repsB) + 63) / 64
			words, start := len(repsA)*e.stride, len(backing)
			backing = append(backing, make([]uint64, 2*words)...)
			elected, blocks := backing[start:start+words], backing[start+words:]
			set := func(m []uint64, ca, cb int) {
				m[ca*e.stride+cb>>6] |= 1 << (cb & 63)
				if a2a { // the bitmaps are symmetric: each class pair is visited once
					m[cb*e.stride+ca>>6] |= 1 << (ca & 63)
				}
			}
			for ca, sa := range repsA {
				first := 0
				if a2a {
					first = ca
				}
				for cb := first; cb < len(repsB); cb++ {
					sb := repsB[cb]
					if !idx.rows[sa].IntersectsBelow(&idx.rows[sb], r) {
						set(elected, ca, cb)
					}
					ga, gb := int(idx.classOf[sa]), int(idx.classOf[sb])
					if a2a && ga > gb {
						ga, gb = gb, ga
					}
					if covered.Contains(ga*n + gb) {
						continue
					}
					covered.Add(ga*n + gb)
					set(blocks, ca, cb)
					if a2a && ca == cb {
						e.pairs += int(countA[ca]) * int(countA[ca]-1) / 2
					} else {
						e.pairs += int(countA[ca]) * int(countB[cb])
					}
				}
			}
			idx.coveredPairs += e.pairs
			starts[r+1] = len(backing)
		}
		for r := range elections {
			lo, hi := starts[r], starts[r+1]
			mid := (lo + hi) / 2
			elections[r].bits, elections[r].blocks = backing[lo:mid:mid], backing[mid:hi:hi]
		}
		idx.elections = elections
	})
}

// election returns reducer r's election.
func (idx *schemaIndex) election(r int) *election {
	idx.derive()
	return &idx.elections[r]
}

// expand appends to dst the first n of reducer r's owned pairs (all of them
// when it owns fewer), in the order a compiled reducer processes its pairs:
// A-side members ascending outer, B-side members ascending inner (for A2A,
// those above the A-side one). It first spreads each A-side local class's
// row of blocks over the B-side members, one bit per member, so that the
// members of a class share one pass over the row and the expansion steps
// from owned pair to owned pair.
func (idx *schemaIndex) expand(dst []pairEntry, r, n int) []pairEntry {
	e := idx.election(r)
	if e.stride == 0 {
		return dst
	}
	words, end := (len(e.b)+63)/64, len(dst)+n
	masks := make([]uint64, len(e.blocks)/e.stride*words)
	for k := range masks {
		ca, j0 := k/words, k%words*64
		row := e.blocks[ca*e.stride : (ca+1)*e.stride]
		for j, cb := range e.cb[j0:min(j0+64, len(e.b))] {
			masks[k] |= (row[cb>>6] >> (cb & 63) & 1) << j
		}
	}
	a2a, bs := idx.schema.Problem == core.ProblemA2A, e.b
	dst = slices.Grow(dst, min(n, e.pairs))
	for i, a := range e.a {
		first := 0
		if a2a {
			first = i + 1
		}
		mask := masks[int(e.ca[i])*words : (int(e.ca[i])+1)*words]
		for k := first >> 6; k < words; k++ {
			w := mask[k]
			if k == first>>6 {
				w &^= 1<<(first&63) - 1
			}
			for ; w != 0; w &= w - 1 {
				if len(dst) == end {
					return dst
				}
				dst = append(dst, pairEntry{int32(a), int32(bs[k<<6+bits.TrailingZeros64(w)])})
			}
		}
	}
	return dst
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
// prescribes when every required pair has an owner and every reducer
// processed its owned pairs, in order, and nothing else. A clean reducer
// checked that as it went, so only the other shards are walked here.
func (idx *schemaIndex) conforms(tr *trace) bool {
	idx.derive()
	if idx.split != nil || idx.coveredPairs != idx.requiredPairCount() || len(tr.shards) != len(idx.elections) {
		return false
	}
	var want []pairEntry
	for r, shard := range tr.shards {
		if tr.clean[r] {
			continue
		}
		if want = idx.expand(want[:0], r, len(shard)+1); !slices.Equal(shard, want) {
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
	return newAuditor("NewAuditor", core.ProblemA2A, schema, shape{numA: numInputs})
}

// NewAuditorX2Y builds the auditor for an X2Y schema over numX and numY
// inputs per side.
func NewAuditorX2Y(schema *core.MappingSchema, numX, numY int) (*Auditor, error) {
	return newAuditor("NewAuditorX2Y", core.ProblemX2Y, schema, shape{numX: numX, numY: numY})
}

func newAuditor(caller string, want core.Problem, schema *core.MappingSchema, sh shape) (*Auditor, error) {
	if schema.Problem != want {
		return nil, fmt.Errorf("exec: %s needs an %v schema, got %v", caller, want, schema.Problem)
	}
	idx, err := newSchemaIndex(schema, sh)
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
// an owning reducer. It returns an *AuditError listing every violation, or
// the error of a reducer that holds part of a class of identical routes, which
// only a fault in the index produces. Coverage is the sum of the reducers'
// owned pairs, counted per block of two classes; the result is cached on the
// index, so runs that share one derive the blocks once.
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
	if idx.derive(); idx.split != nil {
		return idx.split
	}
	if idx.coveredPairs != idx.requiredPairCount() {
		// Slow path only on failure: name every uncovered pair.
		idx.requiredPairs(func(i, j int) {
			if idx.owner(i, j) < 0 {
				violations = append(violations, Violation{
					Err: ErrUncoveredPair, Reducer: -1, A: i, B: j,
					Detail: fmt.Sprintf("pair (%d,%d) shares no reducer", i, j),
				})
			}
		})
	}
	return auditError(violations)
}

// checkTrace verifies that the run processed every required pair exactly
// once, at its owning reducer. A trace that is what the schema prescribes
// passes in conforms; anything else is replayed pair by pair, which names
// every violation.
func (idx *schemaIndex) checkTrace(tr *trace) error {
	if idx.conforms(tr) {
		return nil
	}
	obsSlowReplays.Inc()
	return idx.replay(tr)
}

// replay is the reference check of a trace: from a lookup of the reducers
// that processed each pair — a clean reducer's owned pairs expanded, another's
// shard — it names every required pair that was processed other than once at
// its owner. Logged entries that are not required pairs name nothing.
func (idx *schemaIndex) replay(tr *trace) error {
	processedBy := make(map[pairEntry][]int)
	for r, log := range tr.shards {
		if tr.clean[r] {
			log = idx.expand(nil, r, idx.election(r).pairs)
		}
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
	return auditError(violations)
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
	return auditError(violations)
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
	return auditError(violations)
}
