package jobs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestForEachPanicAttribution checks the worker-panic contract: a
// panic inside one job is re-raised in the caller, carrying the job's
// identity and original panic value, while the remaining jobs still
// run to completion, inline and on workers alike.
func TestForEachPanicAttribution(t *testing.T) {
	for _, parallel := range []int{1, 3} {
		done := make([]bool, 8)
		var msg string
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("parallel=%d: ForEach swallowed the job's panic", parallel)
				}
				var ok bool
				if msg, ok = r.(string); !ok {
					t.Fatalf("parallel=%d: re-raised panic is %T, want string", parallel, r)
				}
			}()
			ForEach(len(done), parallel, func(i int) string {
				return "job-five"
			}, func(i int) {
				if i == 5 {
					panic("boom")
				}
				done[i] = true
			})
		}()
		if !strings.Contains(msg, `"job-five"`) {
			t.Errorf("parallel=%d: panic message lacks job identity: %q", parallel, msg)
		}
		if !strings.Contains(msg, "boom") {
			t.Errorf("parallel=%d: panic message lacks original value: %q", parallel, msg)
		}
		for i, d := range done {
			if i != 5 && !d {
				t.Errorf("parallel=%d: job %d never ran after another job panicked", parallel, i)
			}
		}
	}
}

// TestForEachPanicGridOrder pins down which panic wins when several
// jobs blow up: the lowest job index — first in grid order — not
// whichever worker's recover ran first. Job 6 is choreographed to
// panic strictly before job 1 (it releases job 1 only after its own
// panic is inevitable), yet job 1 must be the one reported.
func TestForEachPanicGridOrder(t *testing.T) {
	released := make(chan struct{})
	var msg string
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("ForEach swallowed the jobs' panics")
			}
			msg = r.(string)
		}()
		ForEach(8, 4, func(i int) string {
			return fmt.Sprintf("job-%d", i)
		}, func(i int) {
			switch i {
			case 1:
				<-released // job 6 panics first, every time
				panic("late-low")
			case 6:
				defer close(released)
				panic("early-high")
			}
		})
	}()
	if !strings.Contains(msg, `"job-1"`) || !strings.Contains(msg, "late-low") {
		t.Errorf("panic should report the lowest grid index (job 1), got: %q", msg)
	}
	if strings.Contains(msg, `"job-6"`) {
		t.Errorf("panic reports the first-to-arrive job instead of grid order: %q", msg)
	}
}

// TestForEachClamp covers both ends of the parallelism clamp: more
// workers than jobs, and a nonsensical negative value. Every job must
// run exactly once either way.
func TestForEachClamp(t *testing.T) {
	for _, parallel := range []int{100, -5} {
		var mu sync.Mutex
		ran := make([]int, 3)
		ForEach(len(ran), parallel, func(i int) string { return "clamp" }, func(i int) {
			mu.Lock()
			ran[i]++
			mu.Unlock()
		})
		for i, c := range ran {
			if c != 1 {
				t.Errorf("parallel=%d: job %d ran %d times, want 1", parallel, i, c)
			}
		}
	}
}

// TestForEachSerial covers the parallel<=1 clamp: the jobs run in
// index order, inline, so the serial path allocates nothing (a
// goroutine or a channel would), and the first job to panic is the one
// reported.
func TestForEachSerial(t *testing.T) {
	var order []int
	ForEach(4, 0, func(i int) string { return "serial" }, func(i int) {
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial ForEach ran out of order: %v", order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("serial ForEach ran %d of 4 jobs", len(order))
	}
	if a := testing.AllocsPerRun(20, func() { ForEach(8, 1, jobName, noop) }); a != 0 {
		t.Errorf("serial ForEach allocates %v times per run, want 0", a)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, `"job-2"`) {
			t.Errorf("serial panic should report the first failing job (job 2), got: %q", msg)
		}
	}()
	ForEach(4, 1, func(i int) string { return fmt.Sprintf("job-%d", i) }, func(i int) {
		if i >= 2 {
			panic(i)
		}
	})
}

func jobName(i int) string { return "noop" }

func noop(int) {}
