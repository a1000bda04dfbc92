package planner

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
)

// canonicalPlan is a cached plan as planners exchange it: the canonical
// instance it answers (the schema carries the problem and the capacity, the
// sizes are the sorted multisets of canon.go) and the solution over canonical
// IDs. Nothing in it belongs to the request that happened to trigger the
// solve, so any planner can materialize it for any isomorphic request.
type canonicalPlan struct {
	Sizes      []core.Size         `json:"sizes"`
	YSizes     []core.Size         `json:"y_sizes,omitempty"`
	Schema     *core.MappingSchema `json:"schema"`
	Winner     string              `json:"winner"`
	LowerBound int                 `json:"lower_bound_reducers"`
	Candidates int                 `json:"candidates"`
}

// ExportPlan returns the key under which planners share the request's
// instance — equal for every relabelling and, for X2Y, mirroring of it — and,
// when this planner's cache holds the instance, its plan in canonical form
// for another planner's ImportPlan. plan is nil when nothing is cached; with
// NoCache set the cache is not read at all, which is the cheap way to ask for
// the key alone. The key is the cache's own 64-bit fingerprint: two instances
// may share one, so ImportPlan compares the sizes before it believes a plan.
func (p *Planner) ExportPlan(req Request) (key string, plan []byte, err error) {
	cn, err := canonicalize(req)
	if err != nil {
		return "", nil, err
	}
	key = fmt.Sprintf("p-%016x", cn.hash)
	if p.cache == nil || req.NoCache {
		return key, nil, nil
	}
	cached := p.cache.get(cn)
	if cached == nil {
		return key, nil, nil
	}
	plan, err = json.Marshal(canonicalPlan{
		Sizes: cn.sizes, YSizes: cn.ySizes, Schema: cached.schema,
		Winner: cached.winner, LowerBound: cached.lowerBound, Candidates: cached.candidates,
	})
	return key, plan, err
}

// ImportPlan stores a plan another planner exported, so that the next Plan of
// the request is a cache hit materialized for the request's own input IDs. The
// bytes are not trusted: the plan must answer exactly the request's canonical
// instance and its schema must validate on the canonical input sets with the
// loads it records, or nothing is stored and the error says why. An instance
// this planner already holds is left as it is.
func (p *Planner) ImportPlan(req Request, plan []byte) error {
	cn, err := canonicalize(req)
	if err != nil {
		return err
	}
	if p.cache == nil || (p.maxCacheable > 0 && len(cn.sizes)+len(cn.ySizes) > p.maxCacheable) {
		return errors.New("planner: this planner does not cache the instance")
	}
	if p.cache.get(cn) != nil {
		return nil
	}
	var in canonicalPlan
	if err := json.Unmarshal(plan, &in); err != nil {
		return fmt.Errorf("planner: decoding imported plan: %w", err)
	}
	if in.Schema == nil || !cn.matches(in.Schema.Problem, in.Schema.Capacity, in.Sizes, in.YSizes) {
		return errors.New("planner: imported plan answers another instance")
	}
	set, ySet, err := cn.inputSets()
	if err != nil {
		return err
	}
	if cn.problem == core.ProblemA2A {
		err = in.Schema.ValidateA2A(set)
	} else {
		err = in.Schema.ValidateX2Y(set, ySet)
	}
	if err != nil {
		return fmt.Errorf("planner: imported plan: %w", err)
	}
	// The validators bound the loads they recompute; materialize hands out the
	// recorded ones, so those must be the same numbers.
	for r, red := range in.Schema.Reducers {
		var load core.Size
		if cn.problem == core.ProblemA2A {
			for _, id := range red.Inputs {
				load += set.Size(id)
			}
		} else {
			for _, id := range red.XInputs {
				load += set.Size(id)
			}
			for _, id := range red.YInputs {
				load += ySet.Size(id)
			}
		}
		if load != red.Load {
			return fmt.Errorf("planner: imported plan: reducer %d records load %d, holds %d", r, red.Load, load)
		}
	}
	p.cache.put(cn, newCachedPlan(cn, in.Schema, in.Winner, in.LowerBound, in.Candidates))
	return nil
}
