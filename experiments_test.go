package repro

import "testing"

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
