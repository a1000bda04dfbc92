package planner

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// canonicalPlan is a cached plan as planners exchange it: the canonical
// instance it answers (the schema carries the problem and the capacity, the
// sizes are the sorted multisets of canon.go) and the solution over canonical
// IDs. Nothing in it belongs to the request that happened to trigger the
// solve, so any planner can materialize it for any isomorphic request.
// LowerBound is informational: ImportPlan recomputes the bound it serves.
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
// the key alone. The key is the cache's own 64-bit fingerprint (see
// CachedPlan).
func (p *Planner) ExportPlan(req Request) (key string, plan []byte, err error) {
	cn, err := canonicalize(req)
	if err != nil {
		return "", nil, err
	}
	key = fmt.Sprintf("p-%016x", cn.hash)
	if p.cache == nil || req.NoCache {
		return key, nil, nil
	}
	if cached := p.cache.get(cn); cached != nil {
		plan, err = encodePlan(cn.sizes, cn.ySizes, cached)
	}
	return key, plan, err
}

// CachedPlan returns the plan this planner's cache holds under key, a key
// ExportPlan returned, in ExportPlan's form; it is nil when nothing is held
// there. Two instances may share a fingerprint, so the plan may answer another
// instance than the one key was computed for: it carries the instance it
// answers, and ImportPlan files it under that one.
func (p *Planner) CachedPlan(key string) ([]byte, error) {
	hex, ok := strings.CutPrefix(key, "p-")
	hash, err := strconv.ParseUint(hex, 16, 64)
	if !ok || err != nil || p.cache == nil {
		return nil, nil
	}
	e := p.cache.byHash(hash)
	if e == nil {
		return nil, nil
	}
	return encodePlan(e.sizes, e.ySizes, e.plan)
}

// encodePlan is the exchange form of a cached plan for the canonical sizes it
// answers.
func encodePlan(sizes, ySizes []core.Size, plan *cachedPlan) ([]byte, error) {
	return json.Marshal(canonicalPlan{
		Sizes: sizes, YSizes: ySizes, Schema: plan.schema,
		Winner: plan.winner, LowerBound: plan.lowerBound, Candidates: plan.candidates,
	})
}

// ImportPlan stores a plan another planner exported, under the instance the
// plan itself records, so that the next Plan of a request isomorphic to it is
// a cache hit, reported as Imported and materialized for the request's own
// input IDs. The bytes are not trusted: the recorded sizes must be in
// canonical form, and the schema must validate on them with the loads it
// records, or nothing is stored and the error says why. The lower bound is
// recomputed, not read. Lookups compare the whole canonical instance, so the
// plan is only ever served for the instance it was checked on. An instance
// this planner already holds is left as it is.
func (p *Planner) ImportPlan(plan []byte) error {
	if p.cache == nil {
		return errors.New("planner: this planner has no cache")
	}
	var in canonicalPlan
	if err := json.Unmarshal(plan, &in); err != nil {
		return fmt.Errorf("planner: decoding imported plan: %w", err)
	}
	if in.Schema == nil {
		return errors.New("planner: imported plan has no schema")
	}
	if len(in.Sizes)+len(in.YSizes) > maxCacheableInputs {
		return errors.New("planner: this planner does not cache the instance")
	}
	var set, ySet *core.InputSet
	var err error
	if set, err = core.NewInputSet(in.Sizes); err == nil && in.Schema.Problem == core.ProblemX2Y {
		ySet, err = core.NewInputSet(in.YSizes)
	}
	if err != nil {
		return fmt.Errorf("planner: imported plan: %w", err)
	}
	cn, err := canonicalize(Request{Problem: in.Schema.Problem, Capacity: in.Schema.Capacity, Set: set, X: set, Y: ySet})
	if err != nil {
		return err
	}
	if !cn.matches(in.Schema.Problem, in.Schema.Capacity, in.Sizes, in.YSizes) {
		return errors.New("planner: imported plan is not in canonical form")
	}
	if p.cache.get(cn) != nil {
		return nil
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
	cached := newCachedPlan(cn, in.Schema, in.Winner, lowerBound(cn, set, ySet), in.Candidates)
	cached.imported = true
	p.cache.put(cn, cached)
	return nil
}
