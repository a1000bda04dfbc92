package main

import (
	"math/rand"

	"repro/internal/core"
	"repro/pkg/assign/plandclient"
)

// The op kinds of svc_mixed.
const (
	opPlanHot = iota
	opPlanCold
	opExecute
	opPatch
	opGet
	numOpKinds
)

var opKindNames = [numOpKinds]string{"plan_hot", "plan_cold", "execute", "session_patch", "session_get"}

// mixPattern is the op order every client cycles through: by count 40%
// plan_hot, 10% plan_cold, 10% execute, 35% session_patch, 5% session_get.
// A fixed order keeps the composition of every slice the same.
var mixPattern = [20]int{
	opPlanHot, opPatch, opPlanHot, opPlanCold, opPatch,
	opPlanHot, opExecute, opPatch, opPlanHot, opGet,
	opPlanHot, opPatch, opPlanCold, opPlanHot, opPatch,
	opExecute, opPlanHot, opPatch, opPlanHot, opPatch,
}

const (
	hotShapes        = 64  // canonical shapes behind plan_hot
	sessionCapacity  = 256 // q of every session
	sessionInputs    = 500 // initial live inputs, about
	sessionMaxSize   = 30
	deltasPerPatch   = 8
	rebuildThreshold = 8.0 // drift ratio that schedules a rebuild job
	// recoveredPerClient sessions are written by the untimed first boot and
	// come back through WAL recovery in every set-up; freshPerClient more are
	// created by the set-up itself.
	recoveredPerClient = 16
	freshPerClient     = 2
	prepPatches        = 4 // first-boot patches per recovered session, so recovery replays deltas
)

// svcOp is one scripted request.
type svcOp struct {
	kind   int
	in     *instance // plan ops, and the sizes behind an execute
	inputs []string  // execute payloads
	sess   int       // session ops: index into the client's sessions
	batch  int       // opPatch: index into the session's batches
}

// sessModel mirrors what one session will hold, so the script can address
// live inputs by the stable IDs the server is going to assign: the initial
// inputs get 0..n-1 and every add the next integer.
type sessModel struct {
	initial []core.Size
	live    []int
	sizes   map[int]core.Size
	next    int
	batches [][]plandclient.SessionDelta

	sid  string // server-side ID in the current boot
	done int    // batches applied in the current boot
}

func newSessModel(rng *rand.Rand) *sessModel {
	s := &sessModel{sizes: map[int]core.Size{}}
	s.initial = zipfSizes(rng, sessionInputs-20+rng.Intn(40), sessionMaxSize)
	for id, sz := range s.initial {
		s.live = append(s.live, id)
		s.sizes[id] = sz
	}
	s.next = len(s.initial)
	return s
}

// nextBatch scripts one PATCH: three adds, three removes and two resizes,
// so the live count holds steady. No delta is a no-op and none can fail:
// every size is at most q/8, so any two inputs share a reducer.
func (s *sessModel) nextBatch(rng *rand.Rand) int {
	var batch []plandclient.SessionDelta
	for k := 0; k < deltasPerPatch; k++ {
		switch k % 3 {
		case 0:
			sz := zipfSizes(rng, 1, sessionMaxSize)[0]
			s.sizes[s.next] = sz
			s.live = append(s.live, s.next)
			s.next++
			batch = append(batch, plandclient.AddDelta(sz))
		case 1:
			i := rng.Intn(len(s.live))
			id := s.live[i]
			s.live[i] = s.live[len(s.live)-1]
			s.live = s.live[:len(s.live)-1]
			delete(s.sizes, id)
			batch = append(batch, plandclient.RemoveDelta(id))
		case 2:
			id := s.live[rng.Intn(len(s.live))]
			sz := 1 + core.Size(rng.Intn(sessionMaxSize))
			if sz == s.sizes[id] {
				sz = sz%sessionMaxSize + 1
			}
			s.sizes[id] = sz
			batch = append(batch, plandclient.ResizeDelta(id, sz))
		}
	}
	s.batches = append(s.batches, batch)
	return len(s.batches) - 1
}

// clientScript is everything one client will send: its sessions, then the
// warm-up ops of a set-up followed by the timed ops.
type clientScript struct {
	sessions []*sessModel // recovered ones first, then the fresh ones
	ops      []svcOp
}

// permuted returns the instance with its inputs in a random order: the
// planner's canonical form is the same, so it is a cache hit after the first.
func permuted(rng *rand.Rand, in *instance) *instance {
	shuffle := func(sizes []core.Size) []core.Size {
		out := append([]core.Size(nil), sizes...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	return &instance{regime: in.regime, problem: in.problem, q: in.q,
		sizes: shuffle(in.sizes), x: shuffle(in.x), y: shuffle(in.y)}
}

// newHotShapes draws the canonical shapes behind plan_hot: three in four are
// A2A with about 400 inputs, the rest X2Y with about 100 x 300. The catalog
// is the same for every seed — the seed draws the re-orderings sent and who
// sends which when — because a mean over 64 shapes would otherwise move the
// workload's quality ratios by half a percent from seed to seed.
func newHotShapes() []*instance {
	rng := rand.New(rand.NewSource(64))
	shapes := make([]*instance, hotShapes)
	for i := range shapes {
		if i%4 == 3 {
			in := &instance{problem: core.ProblemX2Y}
			in.x = zipfSizes(rng, 90+rng.Intn(20), 30)
			in.y = zipfSizes(rng, 280+rng.Intn(40), 30)
			in.q = capacityFor(append(append([]core.Size(nil), in.x...), in.y...), 20, 60)
			shapes[i] = in
			continue
		}
		in := &instance{problem: core.ProblemA2A}
		in.sizes = zipfSizes(rng, 380+rng.Intn(40), 30)
		in.q = capacityFor(in.sizes, 20, 60)
		shapes[i] = in
	}
	return shapes
}

// newClientScript scripts one client. Its plan_hot ops walk the shapes round
// robin, each client starting half way round from the other, so the warm-up
// leaves every shape in the server's cache and every shape weighs the same
// in the quality ratios.
func newClientScript(rng *rand.Rand, client int, shapes []*instance, warm, timed int) *clientScript {
	cs := &clientScript{}
	for i := 0; i < recoveredPerClient+freshPerClient; i++ {
		cs.sessions = append(cs.sessions, newSessModel(rng))
	}
	for _, s := range cs.sessions[:recoveredPerClient] {
		for k := 0; k < prepPatches; k++ {
			s.nextBatch(rng)
		}
	}
	var hot, patch, get int
	for i := 0; i < warm+timed; i++ {
		pos := i
		if i >= warm {
			pos = i - warm // the timed phase starts at the top of the pattern
		}
		op := svcOp{kind: mixPattern[pos%len(mixPattern)]}
		switch op.kind {
		case opPlanHot:
			op.in = permuted(rng, shapes[(hot+client*len(shapes)/2)%len(shapes)])
			hot++
		case opPlanCold:
			op.in = &instance{problem: core.ProblemA2A, sizes: zipfSizes(rng, 180+rng.Intn(40), 30)}
			op.in.q = capacityFor(op.in.sizes, 12, 60)
		case opExecute:
			op.in = &instance{problem: core.ProblemA2A, sizes: make([]core.Size, 56+rng.Intn(8))}
			op.inputs = make([]string, len(op.in.sizes))
			for k := range op.inputs {
				payload := make([]byte, 8+rng.Intn(56))
				for b := range payload {
					payload[b] = 'a' + byte(rng.Intn(26))
				}
				op.inputs[k] = string(payload)
				op.in.sizes[k] = core.Size(len(payload))
			}
			op.in.q = capacityFor(op.in.sizes, 8, 128)
		case opPatch:
			op.sess = patch % len(cs.sessions)
			patch++
			op.batch = cs.sessions[op.sess].nextBatch(rng)
		case opGet:
			op.sess = get % len(cs.sessions)
			get++
		}
		cs.ops = append(cs.ops, op)
	}
	return cs
}
