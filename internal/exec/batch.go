package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// BatchOptions tunes RunBatch.
type BatchOptions struct {
	// Workers bounds how many jobs run concurrently; 0 means
	// min(len(requests), GOMAXPROCS).
	Workers int
}

// RunBatch executes many independent schema-driven jobs under a bounded
// worker pool — the shape of service-style traffic, and of applications that
// decompose into many small jobs. The returned slice is aligned with the
// requests: results[i] belongs to reqs[i] and is nil when that job failed.
// Per-job failures do not stop the other jobs; they are aggregated (with
// their job index and name) into the returned error. Cancelling the context
// stops dispatching new jobs, cancels the running ones mid-pipeline (unless
// a job carries its own Ctx), and marks every undispatched job failed with
// the context's error. Jobs that bring no Compiler share one for the batch, so
// a schema many of them run is compiled by the first to get there.
func RunBatch(ctx context.Context, reqs []Request, opts BatchOptions) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	// The requests at hand say what repeats, so the batch's compiler keeps
	// every schema from its first sight on.
	compiler := newCompiler(true)
	defer compiler.purge()

	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				r := reqs[i]
				if r.Ctx == nil {
					// The batch context now cancels running jobs mid-pipeline,
					// not just undispatched ones.
					r.Ctx = ctx
				}
				if r.Compiler == nil {
					r.Compiler = compiler
				}
				res, err := Run(r)
				if err != nil {
					errs[i] = fmt.Errorf("exec: batch job %d (%q): %w", i, reqs[i].Name, err)
					continue
				}
				results[i] = res
			}
		}()
	}
dispatch:
	for i := range reqs {
		select {
		case idx <- i:
		case <-ctx.Done():
			for j := i; j < len(reqs); j++ {
				errs[j] = fmt.Errorf("exec: batch job %d (%q) not started: %w", j, reqs[j].Name, ctx.Err())
			}
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return results, errors.Join(errs...)
}
