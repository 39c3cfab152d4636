// Package jobs runs a fixed set of indexed jobs with bounded
// parallelism. The experiment grids, the fleet's per-tick host steps
// and geminisim's -all-systems run all go through ForEach, so they share
// one worker pool and one panic contract: a failing job is reported by
// its identity, and when several fail the report does not depend on
// scheduling.
//
// See DESIGN.md §5 (determinism) for why every result is stored by
// index and the lowest failing index is the one reported.
package jobs

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n), at most parallel at a time.
// With parallel ≤ 1 the jobs run inline in index order, with no
// goroutine and no channel.
//
// A panic inside fn does not stop the other jobs. After every job has
// run, ForEach re-raises it in the caller with the job identity that
// describe(i) reports prepended (plus the panicking job's stack), so a
// failing job is attributable instead of crashing an anonymous
// goroutine. When several jobs panic, the one with the lowest index is
// reported, so the re-raised panic is the same at any parallelism.
func ForEach(n, parallel int, describe func(i int) string, fn func(i int)) {
	var f *failure
	if parallel > 1 && n > 1 {
		f = runParallel(n, min(parallel, n), fn)
	} else {
		for i := 0; i < n; i++ {
			if p := run(i, fn); p != nil && f == nil {
				f = p
			}
		}
	}
	if f != nil {
		panic(fmt.Sprintf("job %q panicked: %v\n%s", describe(f.index), f.value, f.stack))
	}
}

// failure records one panicking job.
type failure struct {
	index int
	value any
	stack []byte
}

// run calls fn(i) and returns its panic, if any.
func run(i int, fn func(i int)) (f *failure) {
	defer func() {
		if r := recover(); r != nil {
			f = &failure{index: i, value: r, stack: debug.Stack()}
		}
	}()
	fn(i)
	return nil
}

// runParallel feeds [0, n) to workers goroutines and returns the
// lowest-indexed panic.
func runParallel(n, workers int, fn func(i int)) *failure {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first *failure
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if f := run(i, fn); f != nil {
					mu.Lock()
					if first == nil || f.index < first.index {
						first = f
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}
