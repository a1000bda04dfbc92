package workload

import (
	"fmt"
	"math/rand"
)

// Document is a synthetic web page / document for the similarity-join
// application: an identifier and a bag of terms.
type Document struct {
	ID    int
	Terms []string
}

// CorpusSpec describes a synthetic document corpus.
type CorpusSpec struct {
	// NumDocs is the number of documents.
	NumDocs int
	// VocabularySize is the number of distinct terms; terms are drawn with a
	// Zipf law so a few terms are very common, like real text.
	VocabularySize int
	// MinTerms and MaxTerms bound the terms per document.
	MinTerms, MaxTerms int
	// TermSkew is the Zipf exponent of term popularity; <= 1 clamps to 1.1.
	TermSkew float64
}

// Validate checks the spec.
func (s CorpusSpec) Validate() error {
	if s.NumDocs <= 0 {
		return fmt.Errorf("workload: NumDocs must be positive, got %d", s.NumDocs)
	}
	if s.VocabularySize <= 0 {
		return fmt.Errorf("workload: VocabularySize must be positive, got %d", s.VocabularySize)
	}
	if s.MinTerms < 1 || s.MaxTerms < s.MinTerms {
		return fmt.Errorf("workload: invalid terms range [%d, %d]", s.MinTerms, s.MaxTerms)
	}
	return nil
}

// Documents generates a corpus deterministically for a given seed.
func Documents(spec CorpusSpec, seed int64) ([]Document, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	skew := spec.TermSkew
	if skew <= 1 {
		skew = 1.1
	}
	zipf := rand.NewZipf(rng, skew, 1, uint64(spec.VocabularySize-1))
	docs := make([]Document, spec.NumDocs)
	for i := range docs {
		n := spec.MinTerms
		if spec.MaxTerms > spec.MinTerms {
			n += rng.Intn(spec.MaxTerms - spec.MinTerms + 1)
		}
		terms := make([]string, n)
		for t := range terms {
			terms[t] = fmt.Sprintf("t%05d", zipf.Uint64())
		}
		docs[i] = Document{ID: i, Terms: terms}
	}
	return docs, nil
}
