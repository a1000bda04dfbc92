package planner

// Stats is a snapshot of a planner's counters, read from its series.
type Stats struct {
	// Requests counts the Plan calls that have returned, failed ones
	// included: the sum of the four outcomes below.
	Requests uint64 `json:"requests"`
	// CacheHits counts requests served from a completed cache entry.
	CacheHits uint64 `json:"cache_hits"`
	// CacheMisses counts requests that ran the portfolio themselves.
	CacheMisses uint64 `json:"cache_misses"`
	// SharedFlights counts requests that waited on a concurrent identical
	// solve instead of re-solving (single-flight).
	SharedFlights uint64 `json:"shared_flights"`
	// Errors counts failed requests.
	Errors uint64 `json:"errors"`
	// CacheEntries is the current number of cached canonical plans.
	CacheEntries int `json:"cache_entries"`
	// SolverWins counts, per portfolio member, how many fresh solves it won;
	// members that never won are absent.
	SolverWins map[string]uint64 `json:"solver_wins"`
}

// Stats snapshots the planner's counters.
func (p *Planner) Stats() Stats {
	st := Stats{
		CacheHits:     p.hit.Value(),
		CacheMisses:   p.miss.Value(),
		SharedFlights: p.shared.Value(),
		Errors:        p.failed.Value(),
		CacheEntries:  p.CacheLen(),
		SolverWins:    map[string]uint64{},
	}
	st.Requests = st.CacheHits + st.CacheMisses + st.SharedFlights + st.Errors
	for _, m := range members {
		if n := p.wins.With(m).Value(); n > 0 {
			st.SolverWins[m] = n
		}
	}
	return st
}
