package mr

import "fmt"

// runMapTask applies the mapper to one record, retrying up to the job's
// attempt budget, and returns the emissions of the successful attempt. They
// are collected in buf's storage, overwriting its contents, so a caller can
// reuse one buffer across records.
func runMapTask(job *Job, record []byte, buf []Pair) ([]Pair, error) {
	var lastErr error
	emit := func(p Pair) { buf = append(buf, p) }
	for attempt := 0; attempt < job.attempts(); attempt++ {
		buf = buf[:0]
		if err := job.Mapper.Map(record, emit); err != nil {
			lastErr = err
			continue
		}
		return buf, nil
	}
	return buf[:0], fmt.Errorf("failed after %d attempts: %w", job.attempts(), lastErr)
}

// runReduceTask applies the reducer to one key group, retrying up to the
// job's attempt budget, and returns the emissions of the successful attempt.
func runReduceTask(job *Job, key string, values [][]byte) ([][]byte, error) {
	var lastErr error
	for attempt := 0; attempt < job.attempts(); attempt++ {
		var out [][]byte
		emit := func(rec []byte) { out = append(out, rec) }
		if err := job.Reducer.Reduce(key, values, emit); err != nil {
			lastErr = err
			continue
		}
		return out, nil
	}
	return nil, fmt.Errorf("failed after %d attempts: %w", job.attempts(), lastErr)
}
