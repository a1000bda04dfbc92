// Package shard is the placement layer of a multi-node pland fleet: a
// consistent-hash ring that maps keys (session IDs, job IDs, canonical plan
// keys) onto a static set of nodes, and a health tracker that tells the
// router which nodes to walk past.
//
// # Contract
//
// Placement is a pure function. Ring construction depends only on the node
// set — every ring places DefaultReplicas points per node, never according
// to insertion order, wall clock, or process identity — and hashing is
// 64-bit FNV-1a, so every node in a fleet configured with the same -peers
// list computes the same owner for the same key without any coordination.
// That determinism is the whole protocol: there is no membership gossip, no
// leader, and no ownership table to replicate.
//
// Movement is bounded. A node's removal moves exactly the keys that node
// owned — on average 1/N of the keyspace for an N-node ring — onto their
// clockwise ring successors, and nothing else (the property
// TestRingRemovalMovesOnlyOwnedKeys pins exactly). Symmetrically, an added
// node takes keys only for itself. Virtual nodes (DefaultReplicas per member)
// keep per-node shares balanced; imbalance shrinks with sqrt(replicas).
//
// Failure routing and drain handoff land in the same place. Ring.Owner walks
// clockwise past nodes the health tracker marks dead, so when a node dies its
// keys resolve to their ring successors. Ring.Successor performs the same
// walk with a node explicitly excluded, which is what a draining node uses to
// pick handoff targets for its live sessions — shipping each session to
// precisely the node every surviving peer will route its future requests to.
//
// Health is advisory and local. Each node probes its peers' /readyz
// independently; views may briefly diverge (a forwarded request can land on a
// node that does not consider itself the owner), which the request layer
// tolerates by serving forwarded requests locally rather than forwarding
// again. MarkDown lets the forwarding layer short-circuit the probe cadence
// when a connection is refused outright.
package shard
