package shard

import (
	"errors"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultReplicas is how many virtual points each node contributes to the
// ring, in every ring. More points smooth the key distribution (stddev of the per-node share
// shrinks roughly with 1/sqrt(replicas)) at the cost of a larger sorted-point
// array; 128 keeps a 16-node fleet's imbalance under a few percent while the
// whole ring stays a handful of cache lines.
const DefaultReplicas = 128

// point is one virtual node: the hash it sits at and the node it belongs to.
type point struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring over a static set of nodes.
// Lookups walk clockwise from the key's hash to the first virtual point, so
// membership changes move only the keys whose clockwise walk crossed a
// vanished (or newly inserted) point — the bounded-movement property the
// rebalance tests pin. A changed membership is a new ring from New;
// immutability is what makes the Ring lock-free to share.
type Ring struct {
	nodes  []string // sorted, unique
	points []point  // sorted by hash, ties broken by node
}

// New builds a ring over the given nodes. Duplicates are collapsed; at least
// one node is required. Node order does not matter: the ring is a pure
// function of the node set.
func New(nodes []string) (*Ring, error) {
	uniq := make(map[string]struct{}, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, errors.New("shard: empty node name")
		}
		uniq[n] = struct{}{}
	}
	if len(uniq) == 0 {
		return nil, errors.New("shard: ring needs at least one node")
	}
	r := &Ring{nodes: make([]string, 0, len(uniq))}
	for n := range uniq {
		r.nodes = append(r.nodes, n)
	}
	sort.Strings(r.nodes)
	r.points = make([]point, 0, len(r.nodes)*DefaultReplicas)
	for _, n := range r.nodes {
		for i := 0; i < DefaultReplicas; i++ {
			r.points = append(r.points, point{hash: pointHash(n, i), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// pointHash places virtual point i of a node; Hash places a key. Both are
// 64-bit FNV-1a runs through a splitmix64 finalizer: FNV alone leaves the
// near-identical strings of one node's virtual points too correlated for an
// even ring (a 6-node ring showed 3x share imbalance), and the finalizer's
// avalanche restores it. Both are pure functions of their bytes, so placement
// is stable across processes and restarts — a property the fleet depends on:
// every node must compute the same owner for the same key without
// coordination.
func pointHash(node string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{'#'})
	h.Write([]byte(strconv.Itoa(i)))
	return finalize(h.Sum64())
}

// Hash maps a key onto the ring's hash space.
func Hash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return finalize(h.Sum64())
}

// finalize is the splitmix64 output mix (Steele et al., "Fast Splittable
// Pseudorandom Number Generators").
func finalize(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Nodes returns the ring's member set, sorted. The slice is shared; treat it
// as read-only.
func (r *Ring) Nodes() []string { return r.nodes }

// start returns the index of the first point at or clockwise-after the key.
func (r *Ring) start(key string) int {
	h := Hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the walk continues from the ring's first point
	}
	return i
}

// Owner walks clockwise from the key and returns the first node alive accepts
// (a nil alive accepts everything, so the key's owner is the node of the
// first virtual point clockwise from its hash). This is how the fleet routes around dead
// nodes: every node with the same liveness view computes the same owner, and
// when a node dies its keys land exactly on their ring successors — the same
// nodes a graceful drain hands its sessions to.
func (r *Ring) Owner(key string, alive func(string) bool) (string, bool) {
	return r.walk(key, func(n string) bool { return alive == nil || alive(n) })
}

// Successor walks clockwise from the key skipping the excluded node and
// returns the first acceptable node: the node that inherits the key when
// exclude leaves the ring. A draining node uses its own name as exclude to
// pick each session's handoff target.
func (r *Ring) Successor(key, exclude string, alive func(string) bool) (string, bool) {
	return r.walk(key, func(n string) bool {
		return n != exclude && (alive == nil || alive(n))
	})
}

// walk scans clockwise from the key's point over distinct nodes in ring
// order, returning the first one ok accepts. The set of refused nodes is
// made at the first refusal, so the common walk allocates nothing.
func (r *Ring) walk(key string, ok func(string) bool) (string, bool) {
	start := r.start(key)
	var seen map[string]struct{}
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		if ok(p.node) {
			return p.node, true
		}
		if seen == nil {
			seen = make(map[string]struct{}, len(r.nodes))
		}
		seen[p.node] = struct{}{}
		if len(seen) == len(r.nodes) {
			break
		}
	}
	return "", false
}
