package hotbench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"
)

// ReportSchema identifies the BENCH_hotpath.json format.
const ReportSchema = "hotbench/v1"

// Sample is one timed run of one case, as measured by
// testing.Benchmark.
type Sample struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Result collects a case's samples. Count samples are taken per case
// so downstream comparison (benchstat or Compare) sees run-to-run
// variance instead of a single noisy point.
type Result struct {
	Name    string   `json:"name"`
	Samples []Sample `json:"samples"`
}

// MedianNs returns the median ns/op across the samples.
func (r Result) MedianNs() float64 {
	ns := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		ns[i] = s.NsPerOp
	}
	sort.Float64s(ns)
	n := len(ns)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ns[n/2]
	}
	return (ns[n/2-1] + ns[n/2]) / 2
}

// Report is the machine-readable benchmark artifact written to
// BENCH_hotpath.json: the whole suite at a fixed sample count, tagged
// with the producing toolchain.
type Report struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go"`
	GOARCH     string   `json:"goarch"`
	Count      int      `json:"count"`
	Benchmarks []Result `json:"benchmarks"`
}

// Run executes the whole suite count times via testing.Benchmark and
// returns the report. This is what paperbench -bench-export calls; it
// measures exactly the cases `go test -bench Hotpath` runs.
func Run(count int) *Report {
	rep := &Report{
		Schema:    ReportSchema,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Count:     count,
	}
	for _, c := range Suite() {
		res := Result{Name: c.Name}
		for i := 0; i < count; i++ {
			br := testing.Benchmark(c.Bench)
			res.Samples = append(res.Samples, Sample{
				Iterations:  br.N,
				NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
				BytesPerOp:  br.AllocedBytesPerOp(),
				AllocsPerOp: br.AllocsPerOp(),
			})
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	return rep
}

// WriteJSON writes the report in its committed form.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses and validates a hotbench report. It rejects what
// would make Compare unsound: a case named twice (Compare keys cases
// by name), and samples with non-positive iterations or negative
// ns/op, byte or alloc counts (a negative baseline median passes any
// regression check).
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("hotbench: schema %q, want %q", r.Schema, ReportSchema)
	}
	seen := make(map[string]bool, len(r.Benchmarks))
	for _, b := range r.Benchmarks {
		if b.Name == "" || len(b.Samples) == 0 {
			return nil, fmt.Errorf("hotbench: benchmark %q has no samples", b.Name)
		}
		if seen[b.Name] {
			return nil, fmt.Errorf("hotbench: benchmark %q listed twice", b.Name)
		}
		seen[b.Name] = true
		for _, s := range b.Samples {
			if s.Iterations <= 0 || s.NsPerOp < 0 || s.BytesPerOp < 0 || s.AllocsPerOp < 0 {
				return nil, fmt.Errorf("hotbench: benchmark %q has an invalid sample %+v", b.Name, s)
			}
		}
	}
	return &r, nil
}

// WriteGoBench renders the report in Go benchmark text format, one
// line per sample, so benchstat can diff two reports directly.
func (r *Report) WriteGoBench(w io.Writer) error {
	for _, b := range r.Benchmarks {
		for _, s := range b.Samples {
			_, err := fmt.Fprintf(w, "BenchmarkHotpath/%s %d %.2f ns/op %d B/op %d allocs/op\n",
				b.Name, s.Iterations, s.NsPerOp, s.BytesPerOp, s.AllocsPerOp)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Compare checks cur against base and returns one error per
// violation:
//
//   - a base case missing from cur (a silently dropped benchmark
//     would otherwise hide a regression forever);
//   - a cur case missing from base (a new benchmark would otherwise
//     never be gated);
//   - median ns/op regressed by more than tol (0.10 = +10%);
//   - allocs/op increased at all — allocation counts are exact and
//     machine-independent, so any increase is a real regression, and
//     cases at 0 (the steady-state invariant) must stay at 0.
//
// Improvements never fail; refresh the committed baseline to bank
// them.
func Compare(base, cur *Report, tol float64) []error {
	var errs []error
	curBy := map[string]Result{}
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = b
	}
	for _, b := range base.Benchmarks {
		c, ok := curBy[b.Name]
		delete(curBy, b.Name)
		if !ok {
			errs = append(errs, fmt.Errorf("%s: in baseline but not in current run", b.Name))
			continue
		}
		if bm, cm := b.MedianNs(), c.MedianNs(); cm > bm*(1+tol) {
			errs = append(errs, fmt.Errorf("%s: %.1f ns/op, %+.1f%% vs baseline %.1f (tolerance %+.0f%%)",
				b.Name, cm, (cm/bm-1)*100, bm, tol*100))
		}
		if ba, ca := maxAllocs(b), maxAllocs(c); ca > ba {
			errs = append(errs, fmt.Errorf("%s: %d allocs/op vs baseline %d — allocation regression",
				b.Name, ca, ba))
		}
	}
	for _, c := range cur.Benchmarks {
		if _, ok := curBy[c.Name]; ok {
			errs = append(errs, fmt.Errorf("%s: in current run but not in baseline", c.Name))
		}
	}
	return errs
}

// maxAllocs returns the worst allocs/op across a result's samples.
func maxAllocs(r Result) int64 {
	var max int64
	for _, s := range r.Samples {
		if s.AllocsPerOp > max {
			max = s.AllocsPerOp
		}
	}
	return max
}
