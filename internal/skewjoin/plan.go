// Package skewjoin implements the skew-join application of the paper's X2Y
// problem on top of the in-memory MapReduce engine: the join X(A,B) ⋈ Y(B,C)
// where some values of the joining attribute B are heavy hitters whose tuples
// do not fit into a single reducer.
//
// Light join keys are grouped into reducers by bin packing (one reducer per
// group, like an ordinary hash join with capacity-aware grouping). For every
// heavy hitter the tuples of each side are cut into blocks and the blocks are
// assigned to reducers with an X2Y mapping schema, so that every X block
// meets every Y block of that key while no reducer exceeds the capacity q.
package skewjoin

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/binpack"
	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/planner"
	"repro/internal/workload"
)

// Config configures a skew-join run.
type Config struct {
	// Capacity is the reducer capacity q in bytes of tuple data.
	Capacity core.Size
	// BlockSize is the maximum number of bytes of one block of a heavy
	// hitter's tuples; 0 means Capacity/4. Blocks are the "inputs" of the
	// per-key X2Y instances.
	BlockSize core.Size
	// Workers bounds reduce-phase parallelism; 0 means one worker per
	// reducer.
	Workers int
	// CountOnly makes reducers emit per-key pair counts instead of the
	// joined tuples themselves; the joined tuples of a heavy hitter grow
	// quadratically, so benchmarks use CountOnly.
	CountOnly bool
	// MemoryBudget, when positive, bounds the in-memory shuffle bytes of
	// each underlying engine run (the light-key job and every heavy-key
	// job): over-budget partitions spill sorted run files and merge them
	// back at reduce time. Output is unchanged.
	MemoryBudget int64
	// SpillDir is where over-budget partitions spill; "" means the OS temp
	// dir.
	SpillDir string
}

func (c Config) blockSize() core.Size {
	if c.BlockSize > 0 {
		return c.BlockSize
	}
	b := c.Capacity / 4
	if b < 1 {
		b = 1
	}
	return b
}

// Plan is the reducer assignment computed before the MapReduce job runs.
type Plan struct {
	// NumReducers is the total number of reduce partitions.
	NumReducers int
	// LightReducers is how many of them serve bin-packed light keys.
	LightReducers int
	// HeavyReducers is how many serve heavy-hitter X2Y schemas.
	HeavyReducers int
	// HeavyKeys lists the detected heavy hitters, sorted.
	HeavyKeys []string
	// HeavySchemas maps each heavy key to the X2Y schema used for it.
	HeavySchemas map[string]*core.MappingSchema
	// xDest and yDest give, for every tuple index of the X (resp. Y)
	// relation, the global reducer indexes the tuple is replicated to. Light
	// and one-sided keys map to at most one reducer.
	xDest [][]int
	yDest [][]int
	// xBlock and yBlock give, for every tuple index, the ordinal of the
	// heavy-key block the tuple belongs to, or -1 for light and one-sided
	// tuples.
	xBlock []int
	yBlock []int
	// xBlocks and yBlocks hold, per heavy key, the per-block tuple index
	// lists; Run turns them into the executor jobs' inputs.
	xBlocks map[string][]block
	yBlocks map[string][]block
}

// XDestinations returns the reducer assignments of the X-relation tuple with
// the given index.
func (p *Plan) XDestinations(i int) []int { return p.xDest[i] }

// YDestinations returns the reducer assignments of the Y-relation tuple with
// the given index.
func (p *Plan) YDestinations(i int) []int { return p.yDest[i] }

// BuildPlan detects heavy hitters and computes the full reducer plan for the
// two relations. A key is heavy when the tuples of both sides for that key
// together exceed the capacity q (an ordinary one-reducer-per-key join would
// overflow); every other key with tuples on both sides is light. Keys present
// on only one side produce no join output and are not shipped at all.
func BuildPlan(x, y *workload.Relation, cfg Config) (*Plan, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("skewjoin: capacity must be positive, got %d", cfg.Capacity)
	}
	xSizes, ySizes := x.KeySizes(), y.KeySizes()

	plan := &Plan{
		HeavySchemas: map[string]*core.MappingSchema{},
		xDest:        make([][]int, len(x.Tuples)),
		yDest:        make([][]int, len(y.Tuples)),
		xBlock:       fillNegative(len(x.Tuples)),
		yBlock:       fillNegative(len(y.Tuples)),
	}

	// Classify keys.
	var lightKeys []string
	for k, xs := range xSizes {
		ys, ok := ySizes[k]
		if !ok {
			continue // X-only key: no output
		}
		if core.Size(xs)+core.Size(ys) > cfg.Capacity {
			plan.HeavyKeys = append(plan.HeavyKeys, k)
		} else {
			lightKeys = append(lightKeys, k)
		}
	}
	sort.Strings(plan.HeavyKeys)
	sort.Strings(lightKeys)

	// Light keys: bin-pack into reducers of capacity q.
	lightReducerOf := make(map[string]int, len(lightKeys))
	if len(lightKeys) > 0 {
		items := make([]binpack.Item, len(lightKeys))
		for i, k := range lightKeys {
			items[i] = binpack.Item{ID: i, Size: core.Size(xSizes[k] + ySizes[k])}
		}
		packing, err := binpack.Pack(items, cfg.Capacity, binpack.FirstFitDecreasing)
		if err != nil {
			return nil, fmt.Errorf("skewjoin: packing light keys: %w", err)
		}
		for bin, b := range packing.Bins {
			for _, id := range b.Items {
				lightReducerOf[lightKeys[id]] = bin
			}
		}
		plan.LightReducers = packing.NumBins()
	}
	plan.NumReducers = plan.LightReducers

	// Heavy keys: block each side and solve an X2Y instance per key.
	heavyXBlocks := map[string][][]int{} // key -> per-block global reducer lists
	heavyYBlocks := map[string][][]int{}
	xBlocks := blockTuples(x, plan.HeavyKeys, cfg)
	yBlocks := blockTuples(y, plan.HeavyKeys, cfg)
	for _, k := range plan.HeavyKeys {
		xb, yb := xBlocks[k], yBlocks[k]
		xSet, err := core.NewInputSet(blockSizes(xb))
		if err != nil {
			return nil, fmt.Errorf("skewjoin: heavy key %q X blocks: %w", k, err)
		}
		ySet, err := core.NewInputSet(blockSizes(yb))
		if err != nil {
			return nil, fmt.Errorf("skewjoin: heavy key %q Y blocks: %w", k, err)
		}
		schema, err := heavySchema(xSet, ySet, cfg)
		if err != nil {
			return nil, fmt.Errorf("skewjoin: heavy key %q mapping schema: %w", k, err)
		}
		plan.HeavySchemas[k] = schema
		base := plan.NumReducers
		plan.NumReducers += schema.NumReducers()
		plan.HeavyReducers += schema.NumReducers()
		xAssign, yAssign := mr.AssignmentsX2Y(schema, xSet.Len(), ySet.Len())
		heavyXBlocks[k] = offsetAll(xAssign, base)
		heavyYBlocks[k] = offsetAll(yAssign, base)
	}
	plan.xBlocks = xBlocks
	plan.yBlocks = yBlocks

	// Per-tuple destinations.
	fillDestinations(plan.xDest, plan.xBlock, x, lightReducerOf, xBlocks, heavyXBlocks)
	fillDestinations(plan.yDest, plan.yBlock, y, lightReducerOf, yBlocks, heavyYBlocks)
	return plan, nil
}

// fillNegative returns a slice of n elements all set to -1.
func fillNegative(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	return out
}

// heavySchema solves the X2Y instance of one heavy hitter through the shared
// planner facade: heavy keys with isomorphic block-size multisets — common
// when blocks are cut at a fixed byte boundary — are then solved once and
// served from the canonicalization cache.
func heavySchema(xSet, ySet *core.InputSet, cfg Config) (*core.MappingSchema, error) {
	res, err := planner.Plan(context.Background(), planner.Request{
		Problem: core.ProblemX2Y, X: xSet, Y: ySet, Capacity: cfg.Capacity,
	})
	if err != nil {
		return nil, err
	}
	return res.Schema, nil
}

// block holds the tuple indexes of one block of a heavy key.
type block struct {
	tuples []int
	size   core.Size
}

// blockTuples cuts the heavy keys' tuples of a relation into blocks of at
// most cfg.blockSize() bytes (always at least one tuple per block) and
// returns, per heavy key, the per-block tuple index lists.
func blockTuples(rel *workload.Relation, heavyKeys []string, cfg Config) map[string][]block {
	heavy := make(map[string]bool, len(heavyKeys))
	for _, k := range heavyKeys {
		heavy[k] = true
	}
	blockSize := cfg.blockSize()
	// Collect the tuple indexes per heavy key first, then cut each key's
	// run into blocks; this avoids juggling pointers into growing slices.
	perKey := make(map[string][]int, len(heavyKeys))
	for i, t := range rel.Tuples {
		if heavy[t.Key] {
			perKey[t.Key] = append(perKey[t.Key], i)
		}
	}
	out := make(map[string][]block, len(heavyKeys))
	for k, idxs := range perKey {
		var blocks []block
		cur := block{}
		for _, ti := range idxs {
			sz := core.Size(rel.Tuples[ti].SizeBytes())
			if len(cur.tuples) > 0 && cur.size+sz > blockSize {
				blocks = append(blocks, cur)
				cur = block{}
			}
			cur.tuples = append(cur.tuples, ti)
			cur.size += sz
		}
		if len(cur.tuples) > 0 {
			blocks = append(blocks, cur)
		}
		out[k] = blocks
	}
	return out
}

func blockSizes(blocks []block) []core.Size {
	sizes := make([]core.Size, len(blocks))
	for i, b := range blocks {
		sizes[i] = b.size
	}
	return sizes
}

// offsetAll shifts every reducer index by base.
func offsetAll(assign [][]int, base int) [][]int {
	out := make([][]int, len(assign))
	for i, rs := range assign {
		out[i] = make([]int, len(rs))
		for j, r := range rs {
			out[i][j] = r + base
		}
	}
	return out
}

// fillDestinations assigns, for each tuple of the relation, the list of
// global reducers it is shipped to: the light reducer of its key, the heavy
// block assignments, or nothing when the key has no counterpart on the other
// side. blockOrd records the block ordinal of every heavy tuple.
func fillDestinations(dest [][]int, blockOrd []int, rel *workload.Relation,
	lightReducerOf map[string]int, blocks map[string][]block, heavyBlockDest map[string][][]int) {
	// Map tuple index -> block ordinal for heavy keys.
	blockOf := map[int]int{}
	blockKey := map[int]string{}
	for k, bs := range blocks {
		for bi, b := range bs {
			for _, ti := range b.tuples {
				blockOf[ti] = bi
				blockKey[ti] = k
			}
		}
	}
	for i, t := range rel.Tuples {
		if r, ok := lightReducerOf[t.Key]; ok {
			dest[i] = []int{r}
			continue
		}
		if k, ok := blockKey[i]; ok {
			dest[i] = heavyBlockDest[k][blockOf[i]]
			blockOrd[i] = blockOf[i]
			continue
		}
		// Neither light nor heavy: the key exists on one side only and
		// contributes nothing to the join.
		dest[i] = nil
	}
}
