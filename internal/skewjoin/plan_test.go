package skewjoin

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestBlockTuplesRespectsBlockSize(t *testing.T) {
	rel := makeRelation("X", 10, map[string]int{"hot": 17, "cold": 3})
	cfg := Config{Capacity: 400, BlockSize: 45}
	blocks := blockTuples(rel, []string{"hot"}, cfg)
	hot := blocks["hot"]
	if len(hot) == 0 {
		t.Fatal("no blocks for the heavy key")
	}
	total := 0
	for i, b := range hot {
		if len(b.tuples) == 0 {
			t.Fatalf("block %d is empty", i)
		}
		var size core.Size
		for _, ti := range b.tuples {
			if rel.Tuples[ti].Key != "hot" {
				t.Fatalf("block %d contains a tuple of key %q", i, rel.Tuples[ti].Key)
			}
			size += core.Size(rel.Tuples[ti].SizeBytes())
		}
		if size != b.size {
			t.Fatalf("block %d records size %d, tuples sum to %d", i, b.size, size)
		}
		// Blocks may exceed the block size only when a single tuple does.
		if b.size > cfg.BlockSize && len(b.tuples) > 1 {
			t.Fatalf("block %d has size %d > block size %d with %d tuples", i, b.size, cfg.BlockSize, len(b.tuples))
		}
		total += len(b.tuples)
	}
	if total != 17 {
		t.Fatalf("blocks hold %d tuples, want 17", total)
	}
	if _, ok := blocks["cold"]; ok {
		t.Error("light key was blocked")
	}
}

func TestBlockTuplesSingleOversizedTuple(t *testing.T) {
	rel := &workload.Relation{Name: "X", Tuples: []workload.Tuple{
		{Key: "hot", Payload: "this-payload-is-much-longer-than-a-block"},
		{Key: "hot", Payload: "x"},
	}}
	cfg := Config{Capacity: 100, BlockSize: 10}
	blocks := blockTuples(rel, []string{"hot"}, cfg)
	if len(blocks["hot"]) != 2 {
		t.Fatalf("expected 2 blocks (oversized tuple alone), got %d", len(blocks["hot"]))
	}
	if len(blocks["hot"][0].tuples) != 1 {
		t.Errorf("oversized tuple should sit alone in its block")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Capacity: 100}
	if c.blockSize() != 25 {
		t.Errorf("default block size = %d, want capacity/4", c.blockSize())
	}
	c = Config{Capacity: 2}
	if c.blockSize() != 1 {
		t.Errorf("tiny capacity block size = %d, want 1", c.blockSize())
	}
	c = Config{Capacity: 100, BlockSize: 40}
	if c.blockSize() != 40 {
		t.Errorf("explicit block size = %d, want 40", c.blockSize())
	}
}

func TestBuildPlanHeavySchemasValidate(t *testing.T) {
	x := makeRelation("X", 12, map[string]int{"hot1": 30, "hot2": 25, "c": 2})
	y := makeRelation("Y", 12, map[string]int{"hot1": 28, "hot2": 20, "c": 3})
	cfg := Config{Capacity: 250, BlockSize: 70}
	plan, err := BuildPlan(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.HeavyKeys) != 2 {
		t.Fatalf("HeavyKeys = %v, want two heavy keys", plan.HeavyKeys)
	}
	xBlocks := blockTuples(x, plan.HeavyKeys, cfg)
	yBlocks := blockTuples(y, plan.HeavyKeys, cfg)
	for _, k := range plan.HeavyKeys {
		schema := plan.HeavySchemas[k]
		if schema == nil {
			t.Fatalf("missing schema for heavy key %q", k)
		}
		xs, err := core.NewInputSet(blockSizes(xBlocks[k]))
		if err != nil {
			t.Fatal(err)
		}
		ys, err := core.NewInputSet(blockSizes(yBlocks[k]))
		if err != nil {
			t.Fatal(err)
		}
		if err := schema.ValidateX2Y(xs, ys); err != nil {
			t.Errorf("schema for heavy key %q invalid: %v", k, err)
		}
	}
	// Every tuple of a both-sided key must have at least one destination and
	// all destinations must be in range.
	for i := range x.Tuples {
		for _, r := range plan.XDestinations(i) {
			if r < 0 || r >= plan.NumReducers {
				t.Fatalf("X tuple %d routed to out-of-range reducer %d", i, r)
			}
		}
	}
	for i, tp := range y.Tuples {
		dests := plan.YDestinations(i)
		if len(dests) == 0 && tp.Key != "" {
			// Every Y key here exists on the X side, so every tuple must go
			// somewhere.
			t.Fatalf("Y tuple %d (key %q) has no destination", i, tp.Key)
		}
	}
	if plan.NumReducers != plan.LightReducers+plan.HeavyReducers {
		t.Errorf("reducer accounting: %d != %d + %d", plan.NumReducers, plan.LightReducers, plan.HeavyReducers)
	}
}

func TestBuildPlanLightKeysShareReducersWithinCapacity(t *testing.T) {
	x := makeRelation("X", 10, map[string]int{"a": 2, "b": 2, "c": 2, "d": 2, "e": 2})
	y := makeRelation("Y", 10, map[string]int{"a": 2, "b": 2, "c": 2, "d": 2, "e": 2})
	cfg := Config{Capacity: 200}
	plan, err := BuildPlan(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.HeavyKeys) != 0 {
		t.Fatalf("unexpected heavy keys %v", plan.HeavyKeys)
	}
	// All five keys weigh 5*(2+2)*(key+payload bytes) ... well within one or
	// two bins; the point is that keys share reducers instead of one each.
	if plan.LightReducers >= 5 {
		t.Errorf("light keys were not grouped: %d reducers for 5 keys", plan.LightReducers)
	}
}

func TestBuildPlanRejectsNonPositiveCapacity(t *testing.T) {
	x := makeRelation("X", 4, map[string]int{"a": 1})
	y := makeRelation("Y", 4, map[string]int{"a": 1})
	if _, err := BuildPlan(x, y, Config{Capacity: 0}); err == nil {
		t.Error("accepted zero capacity")
	}
}
