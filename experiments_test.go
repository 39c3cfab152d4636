package repro

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestForEachPanicAttribution checks the worker-panic contract: a
// panic inside one job is re-raised in the caller, carrying the job's
// identity and original panic value, while the remaining jobs still
// run to completion.
func TestForEachPanicAttribution(t *testing.T) {
	done := make([]bool, 8)
	var msg string
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("forEach swallowed the worker panic")
			}
			var ok bool
			if msg, ok = r.(string); !ok {
				t.Fatalf("re-raised panic is %T, want string", r)
			}
		}()
		forEach(len(done), 3, func(i int) string {
			return "job-five"
		}, func(i int) {
			if i == 5 {
				panic("boom")
			}
			done[i] = true
		})
	}()
	if !strings.Contains(msg, `"job-five"`) {
		t.Errorf("panic message lacks job identity: %q", msg)
	}
	if !strings.Contains(msg, "boom") {
		t.Errorf("panic message lacks original value: %q", msg)
	}
	for i, d := range done {
		if i != 5 && !d {
			t.Errorf("job %d never ran after another job panicked", i)
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
				t.Fatal("forEach swallowed the worker panics")
			}
			msg = r.(string)
		}()
		forEach(8, 4, func(i int) string {
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
		forEach(len(ran), parallel, func(i int) string { return "clamp" }, func(i int) {
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

// TestForEachSerial covers the parallel<=1 clamp.
func TestForEachSerial(t *testing.T) {
	var order []int
	forEach(4, 0, func(i int) string { return "serial" }, func(i int) {
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial forEach ran out of order: %v", order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("serial forEach ran %d of 4 jobs", len(order))
	}
}

// TestGridRowProgress pins what each grid row type reports to
// run-stats and the progress line: the first run's ticks, its FMFI and
// huge-page coverage, and for pressure rows the pages every VM swapped
// out or ballooned. A row without runs reports nothing.
func TestGridRowProgress(t *testing.T) {
	a := Result{Ticks: 40, GuestFMFI: 0.125, HugeCoverage: 0.5, SwappedPages: 3, BalloonPages: 5}
	b := Result{Ticks: 41, GuestFMFI: 0.9, HugeCoverage: 0.1, SwappedPages: 7, BalloonPages: 11}
	for _, c := range []struct {
		row    gridRow
		ticks  uint64
		gauges string
	}{
		{a, 40, " fmfi=0.12 cov=0.50"},
		{CleanSlateRow{Fragmented: true, Result: b}, 41, " fmfi=0.90 cov=0.10"},
		{ColocatedRow{A: a, B: b}, 40, " fmfi=0.12 cov=0.50"},
		{ManyVMRow{Results: []Result{b, a}}, 41, " fmfi=0.90 cov=0.10"},
		{ManyVMRow{}, 0, ""},
		{PressureRow{Results: []Result{a, b}}, 40, " fmfi=0.12 cov=0.50 swapped=10 balloon=16"},
		{PressureRow{}, 0, ""},
		{FleetResult{Ticks: 9, MeanHostFMFI: 0.333, HugeCoverage: 0.666}, 9, " fmfi=0.33 cov=0.67"},
	} {
		if ticks, gauges := c.row.Progress(); ticks != c.ticks || gauges != c.gauges {
			t.Errorf("%T: Progress() = %d, %q; want %d, %q", c.row, ticks, gauges, c.ticks, c.gauges)
		}
	}
}
