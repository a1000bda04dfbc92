package planner_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/workload"
)

// The schema digest holds the planner's A2A output on seeded families of
// instances, byte for byte: a change that moves a plan moves its family's row
// of testdata/schema_digest.json, and the diff of that file says which
// families moved and by how many reducers. Regenerate it (only when a change
// means to move plans) with:
//
//	go test ./internal/planner -run TestSchemaDigest -update-golden

// digestDraws is the number of draws per family; digestPrefix is the prefix
// -short and -race runs check.
const (
	digestDraws  = 50
	digestPrefix = 20
)

// digestCaps are the families' size caps, as fractions num/den of q.
var digestCaps = []struct {
	name     string
	num, den core.Size
}{{"q/40", 1, 40}, {"q/8", 1, 8}, {"q/3", 1, 3}, {"q/2", 1, 2}, {"3q/4", 3, 4}}

// digestDists are the families' size distributions. "big" is uniform small
// inputs capped at min(cap, q - big) beside one input in (q/2, 5q/8].
var digestDists = []string{"uniform", "zipf", "equal", "big"}

// digestRow is one family's line of the digest file.
type digestRow struct {
	Family        string    `json:"family"`
	Draws         int       `json:"draws"`
	Reducers      int       `json:"reducers"`
	Communication core.Size `json:"communication"`
	// SHA256 is over every draw's schema bytes (or error text) in draw
	// order, SHA256First20 over the first digestPrefix draws alone.
	SHA256        string `json:"sha256"`
	SHA256First20 string `json:"sha256_first20"`
	// DrawReducers and DrawSHA256 (each draw's hash, cut to 8 hex digits)
	// locate the first draw that moved.
	DrawReducers []int    `json:"draw_reducers"`
	DrawSHA256   []string `json:"draw_sha256"`
}

// digestInstance draws family (c, d)'s draw i: 30 to 300 inputs at q in
// [100, 2000), from a seed of its own, so a draw does not depend on the
// draws before it.
func digestInstance(t testing.TB, c, d, i int) (*core.InputSet, core.Size) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64((c*len(digestDists)+d)*1_000_000 + i)))
	q := core.Size(100 + rng.Intn(1900))
	m := 30 + rng.Intn(271)
	limit := q * digestCaps[c].num / digestCaps[c].den
	spec := workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: limit}
	big := core.Size(0)
	switch digestDists[d] {
	case "zipf":
		spec.Dist, spec.Skew = workload.Zipf, 1.5
	case "equal":
		spec.Dist, spec.Min = workload.Constant, limit
	case "big":
		big = q/2 + 1 + core.Size(rng.Int63n(int64(q/8)))
		spec.Max = min(limit, q-big)
	}
	sizes, err := workload.Sizes(spec, m, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	if big > 0 {
		sizes[rng.Intn(m)] = big
	}
	return core.MustNewInputSet(sizes), q
}

// digestFamily plans a family's first draws draws and digests them.
func digestFamily(t testing.TB, c, d, draws int) digestRow {
	t.Helper()
	row := digestRow{Family: fmt.Sprintf("a2a %s %s", digestCaps[c].name, digestDists[d]), Draws: draws}
	all, first := sha256.New(), sha256.New()
	p := planner.New(planner.Config{CacheEntries: -1})
	for i := 0; i < draws; i++ {
		set, q := digestInstance(t, c, d, i)
		res, err := p.Plan(context.Background(), planner.Request{Problem: core.ProblemA2A, Set: set, Capacity: q, NoCache: true})
		var blob []byte
		reducers := -1 // an error serves no reducers
		if err != nil {
			blob = []byte("error: " + err.Error())
		} else {
			if blob, err = res.Schema.MarshalJSON(); err != nil {
				t.Fatal(err)
			}
			cost := core.SchemaCost(res.Schema)
			reducers = cost.Reducers
			row.Reducers += cost.Reducers
			row.Communication = core.AddSat(row.Communication, cost.Communication)
		}
		sum := sha256.Sum256(blob)
		all.Write(sum[:])
		if i < digestPrefix {
			first.Write(sum[:])
		}
		row.DrawReducers = append(row.DrawReducers, reducers)
		row.DrawSHA256 = append(row.DrawSHA256, hex.EncodeToString(sum[:4]))
	}
	row.SHA256 = hex.EncodeToString(all.Sum(nil))
	row.SHA256First20 = hex.EncodeToString(first.Sum(nil))
	return row
}

func digestPath() string { return filepath.Join("testdata", "schema_digest.json") }

// TestSchemaDigest plans every draw of every family and compares the rows
// with the committed digest: in full, or under -short and -race the first
// digestPrefix draws of each family. A mismatch names the family, the first
// draw that differs and both reducer counts.
func TestSchemaDigest(t *testing.T) {
	draws := digestDraws
	if testing.Short() || raceEnabled {
		draws = digestPrefix
	}
	if *updateGolden {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for c := range digestCaps {
			for d := range digestDists {
				line, err := json.Marshal(digestFamily(t, c, d, digestDraws))
				if err != nil {
					t.Fatal(err)
				}
				if buf.Len() > 2 {
					buf.WriteString(",\n")
				}
				buf.WriteString("  ")
				buf.Write(line)
			}
		}
		buf.WriteString("\n]\n")
		if err := os.WriteFile(digestPath(), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", digestPath())
		return
	}
	blob, err := os.ReadFile(digestPath())
	if err != nil {
		t.Fatalf("reading the digest (regenerate with -update-golden): %v", err)
	}
	var want []digestRow
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parsing %s: %v", digestPath(), err)
	}
	if len(want) != len(digestCaps)*len(digestDists) {
		t.Fatalf("%s has %d families, want %d; regenerate it", digestPath(), len(want), len(digestCaps)*len(digestDists))
	}
	for c := range digestCaps {
		for d := range digestDists {
			w := want[c*len(digestDists)+d]
			got := digestFamily(t, c, d, draws)
			if w.Family != got.Family || w.Draws != digestDraws || len(w.DrawSHA256) != digestDraws || len(w.DrawReducers) != digestDraws {
				t.Fatalf("row %d of %s is %q over %d draws, want %q over %d; regenerate it",
					c*len(digestDists)+d, digestPath(), w.Family, w.Draws, got.Family, digestDraws)
			}
			same := got.SHA256First20 == w.SHA256First20
			if draws == digestDraws {
				same = same && got.SHA256 == w.SHA256 && got.Reducers == w.Reducers && got.Communication == w.Communication
			}
			if same {
				continue
			}
			i := 0
			for i < draws-1 && got.DrawSHA256[i] == w.DrawSHA256[i] {
				i++
			}
			t.Errorf("%s: draw %d moved: %d reducers, digest %d (sha256 %s, digest %s)",
				got.Family, i, got.DrawReducers[i], w.DrawReducers[i], got.DrawSHA256[i], w.DrawSHA256[i])
		}
	}
}
