package workload

import (
	"fmt"
	"math/rand"
)

// Tuple is one row of a binary relation used by the skew-join application.
// For the relation X(A, B) the join key B is Key and A is Payload; for
// Y(B, C) the join key B is Key and C is Payload.
type Tuple struct {
	Key     string
	Payload string
}

// Relation is an ordered multiset of tuples.
type Relation struct {
	Name   string
	Tuples []Tuple
}

// RelationSpec describes a synthetic relation with a skewed join-key
// distribution.
type RelationSpec struct {
	// Name labels the relation ("X" or "Y" in the paper's notation).
	Name string
	// NumTuples is the number of tuples.
	NumTuples int
	// NumKeys is the number of distinct join-key values.
	NumKeys int
	// Skew is the Zipf exponent of the key frequency distribution: 0 means
	// uniform keys, otherwise it must be > 1, and larger values concentrate
	// tuples on fewer heavy hitters.
	Skew float64
	// PayloadBytes is the payload length of every tuple; 0 means 8.
	PayloadBytes int
}

// Validate checks the spec.
func (s RelationSpec) Validate() error {
	if s.NumTuples <= 0 {
		return fmt.Errorf("workload: NumTuples must be positive, got %d", s.NumTuples)
	}
	if s.NumKeys <= 0 {
		return fmt.Errorf("workload: NumKeys must be positive, got %d", s.NumKeys)
	}
	if s.Skew != 0 && !(s.Skew > 1) {
		return fmt.Errorf("workload: Skew must be 0 (uniform) or > 1, got %v", s.Skew)
	}
	return nil
}

// GenerateRelation builds a relation deterministically for a given seed.
func GenerateRelation(spec RelationSpec, seed int64) (*Relation, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	payload := spec.PayloadBytes
	if payload <= 0 {
		payload = 8
	}
	keyFor := func() int { return rng.Intn(spec.NumKeys) }
	if spec.Skew > 0 {
		z := rand.NewZipf(rng, spec.Skew, 1, uint64(spec.NumKeys-1))
		keyFor = func() int { return int(z.Uint64()) }
	}
	rel := &Relation{Name: spec.Name, Tuples: make([]Tuple, spec.NumTuples)}
	for i := range rel.Tuples {
		k := keyFor()
		rel.Tuples[i] = Tuple{
			Key:     fmt.Sprintf("k%06d", k),
			Payload: randomPayload(rng, payload),
		}
	}
	return rel, nil
}

// randomPayload builds a printable payload of exactly n bytes.
func randomPayload(rng *rand.Rand, n int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}
