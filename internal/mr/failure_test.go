package mr

import (
	"errors"
	"testing"
)

// errInjected is what the failing tasks below return.
var errInjected = errors.New("injected task failure")

// TestMapRetryExhaustedFailsJob: a failing pull fails the job with its error.
// The engine pulls once: the failed record is not asked for again.
func TestMapRetryExhaustedFailsJob(t *testing.T) {
	pulls := 0
	src := SourceFunc(func() ([]byte, error) {
		pulls++
		return nil, errInjected
	})
	_, err := Run(t.Context(), scatterJob(1, 1), src, nil, StreamOptions{})
	if !errors.Is(err, errInjected) || err.Error() != "mr: reading input record 0: injected task failure" {
		t.Fatalf("err = %v, want the source's error for record 0", err)
	}
	if pulls != 1 {
		t.Errorf("source pulled %d times, want 1", pulls)
	}
}

// TestReduceRetryExhaustedFailsJob: a failing reduce task fails the job with
// its error. The engine runs each task once.
func TestReduceRetryExhaustedFailsJob(t *testing.T) {
	calls := 0
	job := scatterJob(1, 1)
	job.Reduce = func(r int, recs []Record, emit func([]byte)) error {
		calls++
		emit(recs[0].Data)
		return errInjected
	}
	if _, err := runSlice(job, [][]byte{[]byte("x")}); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the reduce task's error", err)
	}
	if calls != 1 {
		t.Errorf("reduce called %d times, want 1", calls)
	}
}
