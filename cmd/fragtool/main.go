// Command fragtool demonstrates the memory fragmenter used by the
// evaluation (§6.1): it fragments a simulated physical memory to a
// target free-memory fragmentation index, reports the allocator
// state, then recovers region by region as background compaction
// would.
//
// Usage:
//
//	fragtool [-mem 1024] [-target 0.9] [-consume 0.5] [-seed 1] [-recover 16]
//	fragtool -series FILE
//	fragtool -runstats REPORT.json
//
// With -series FILE the tool instead summarizes a flight-recorder
// sample series (the CSV written by geminisim/paperbench/fleetsim
// -series): for each host and each VM it prints the minimum, maximum,
// and final FMFI per order over the run — fragmentation over time at
// a glance, without plotting. Host scopes come first: vm=-1 is host 0
// (the only host of an engine run), vm=-2 host 1 and so on in fleet
// series.
//
// With -runstats REPORT.json it prints the run-stats section of a
// paperbench/v1 report (written by paperbench/fleetsim -runstats
// -json): total wall time, peak heap, and the per-cell profile table,
// plus the trace summary when present. Errors if the report has no
// runstats section.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro"
	"repro/internal/buddy"
	"repro/internal/frag"
	"repro/internal/mem"
	"repro/internal/trace"
)

func main() {
	memMB := flag.Int("mem", 1024, "memory size in MiB")
	target := flag.Float64("target", 0.9, "target FMFI at huge-page order")
	consume := flag.Float64("consume", 0.5, "max fraction of memory pinned")
	seed := flag.Int64("seed", 1, "random seed")
	recover := flag.Int("recover", 16, "regions to recover after fragmenting")
	series := flag.String("series", "", "summarize a flight-recorder series CSV instead of fragmenting")
	runstats := flag.String("runstats", "", "print the runstats section of a paperbench/v1 JSON report instead of fragmenting")
	flag.Parse()

	if *series != "" {
		if err := summarizeSeries(os.Stdout, *series); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *runstats != "" {
		if err := printRunStats(*runstats); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	pages := uint64(*memMB) << 20 >> mem.PageShift
	a := buddy.New(pages)
	fmt.Printf("pristine:   %s\n", frag.Probe(a))

	f := frag.New(a, *seed)
	got := f.FragmentTo(*target, *consume)
	fmt.Printf("fragmented: %s (target %.2f, achieved %.3f, pinned %d pages in %d regions)\n",
		frag.Probe(a), *target, got, f.HeldPages(), f.HeldRegions())

	step := *recover / 4
	if step < 1 {
		step = 1
	}
	for released := 0; released < *recover; released += step {
		f.ReleaseRegions(step)
		fmt.Printf("recovered %3d regions: %s\n", released+step, frag.Probe(a))
	}

	f.ReleaseAll()
	fmt.Printf("released:   %s\n", frag.Probe(a))
}

// printRunStats loads a paperbench/v1 report and prints its runstats
// section (and trace summary when present).
func printRunStats(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := repro.ReadBenchReport(f)
	if err != nil {
		return err
	}
	if r.RunStats == nil {
		return fmt.Errorf("%s: no runstats section (rerun with -runstats or -serve)", path)
	}
	fmt.Print(r.RunStats.Format())
	if t := r.Trace; t != nil {
		streamed := ""
		if t.Streamed {
			streamed = " streamed"
		}
		fmt.Printf("trace: events=%d samples=%d dropped=%d stride=%d%s\n",
			t.Events, t.Samples, t.DroppedEvents, t.SamplerStride, streamed)
	}
	for _, w := range r.Warnings() {
		fmt.Fprintf(os.Stderr, "warning: %s\n", w)
	}
	return nil
}

// summarizeSeries reads a flight-recorder sample series and writes the
// FMFI-over-time envelope (min, max, final) per order for each host
// scope, in host order, then for each VM.
func summarizeSeries(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, err := trace.ReadSeriesCSV(f)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("%s: no samples", path)
	}

	type envelope struct {
		min, max, final [trace.NumOrders]float64
		first, last     uint64
		n               int
	}
	byVM := map[int]*envelope{}
	var vms []int
	for i := range samples {
		s := &samples[i]
		e := byVM[s.VM]
		if e == nil {
			e = &envelope{first: s.Tick}
			for o := range e.min {
				e.min[o] = s.FMFI[o]
				e.max[o] = s.FMFI[o]
			}
			byVM[s.VM] = e
			vms = append(vms, s.VM)
		}
		for o, v := range s.FMFI {
			if v < e.min[o] {
				e.min[o] = v
			}
			if v > e.max[o] {
				e.max[o] = v
			}
			e.final[o] = v
		}
		e.last = s.Tick
		e.n++
	}
	// Host scopes are tagged -(1+host): they sort first, host 0 first.
	sort.Slice(vms, func(i, j int) bool {
		a, b := vms[i], vms[j]
		if a < 0 && b < 0 {
			return a > b
		}
		return a < b
	})

	fmt.Fprintf(w, "%s: %d samples, ticks %d..%d\n", path, len(samples),
		samples[0].Tick, samples[len(samples)-1].Tick)
	for _, vm := range vms {
		e := byVM[vm]
		who := fmt.Sprintf("vm %d", vm)
		if vm < 0 {
			who = fmt.Sprintf("host %d", -vm-1)
		}
		fmt.Fprintf(w, "\n%s (%d samples, ticks %d..%d): FMFI by order\n", who, e.n, e.first, e.last)
		fmt.Fprintf(w, "%-6s %8s %8s %8s\n", "order", "min", "max", "final")
		for o := 0; o < trace.NumOrders; o++ {
			fmt.Fprintf(w, "%-6d %8.3f %8.3f %8.3f\n", o, e.min[o], e.max[o], e.final[o])
		}
	}
	return nil
}
