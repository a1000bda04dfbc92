package shard

import "repro/internal/obs"

// Fleet series on obs.Default. Peer labels come from the static -peers flag,
// so the label sets are bounded by fleet size.
var (
	obsPeerUp = obs.Default.GaugeVec("pland_peer_up",
		"Peer liveness as seen by this node's health prober (1 up, 0 down).", "peer")
	obsPeerProbeFailures = obs.Default.CounterVec("pland_peer_probe_failures_total",
		"Failed readiness probes, by peer.", "peer")
	obsPeerRecoveries = obs.Default.CounterVec("pland_peer_recoveries_total",
		"Transitions of a peer from down back to up.", "peer")
)
