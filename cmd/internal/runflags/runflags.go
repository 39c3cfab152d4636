// Package runflags is the run-output surface shared by the simulation
// commands (paperbench, fleetsim, geminisim): the trace flags (-trace,
// -series, -sample-every, -stream, -progress), the report flags (-json,
// -validate-json, -runstats, -serve, -serve-linger), and the lifecycle
// those flags drive. A command registers the flags, calls Start before
// its run and Finish after it, and keeps only its own flags and runs.
// See DESIGN.md §9 for the observability model behind the outputs.
package runflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/telemetry"
)

// Flags holds the parsed run-output flags of one command.
type Flags struct {
	Trace       string // -trace: event trace JSONL path
	Series      string // -series: sample series CSV path
	SampleEvery int    // -sample-every: sampler stride in ticks
	Stream      bool   // -stream: write the trace files during the run
	Progress    bool   // -progress: live progress lines on stderr

	JSON         string        // -json: paperbench/v1 report path
	ValidateJSON string        // -validate-json: report to check instead of running
	RunStats     bool          // -runstats: profile the run
	Serve        string        // -serve: telemetry endpoint address
	ServeLinger  time.Duration // -serve-linger: keep -serve up after the run

	name           string // progress label and metric-name prefix
	stdout, stderr io.Writer
}

// Register defines the trace flags, and the report flags when report
// is set, on fs. name labels progress lines and prefixes the metric
// names the endpoint exports.
func Register(fs *flag.FlagSet, name string, report bool) *Flags {
	f := &Flags{name: name, stdout: os.Stdout, stderr: os.Stderr}
	fs.StringVar(&f.Trace, "trace", "", "write the structured event trace as JSONL to FILE")
	fs.StringVar(&f.Series, "series", "", "write the per-tick sample series as CSV to FILE")
	fs.IntVar(&f.SampleEvery, "sample-every", 0, "sample stride in ticks for -series (0 = recorder default)")
	fs.BoolVar(&f.Stream, "stream", false, "stream -trace/-series files incrementally during the run instead of writing at the end")
	fs.BoolVar(&f.Progress, "progress", false, "print live progress with ETA to stderr")
	if report {
		fs.StringVar(&f.JSON, "json", "", "write the run as a paperbench/v1 JSON report to FILE")
		fs.StringVar(&f.ValidateJSON, "validate-json", "", "validate an existing paperbench/v1 JSON report and exit")
		fs.BoolVar(&f.RunStats, "runstats", false, "profile the run (wall time, ticks/sec, allocs), print the table to stderr, and embed it in the -json report")
		fs.StringVar(&f.Serve, "serve", "", "serve live /metrics, /debug/vars, and /debug/pprof on ADDR (e.g. 127.0.0.1:9631) for the run's duration")
		fs.DurationVar(&f.ServeLinger, "serve-linger", 0, "keep the -serve endpoint up this long after the run finishes")
	}
	return f
}

// ValidateReport checks the -validate-json report against the
// paperbench/v1 contract, printing a summary line on stdout and any
// data-quality warnings on stderr.
func (f *Flags) ValidateReport() error {
	file, err := os.Open(f.ValidateJSON)
	if err != nil {
		return err
	}
	defer file.Close()
	r, err := repro.ReadBenchReport(file)
	if err == nil {
		err = r.Validate()
	}
	if err != nil {
		return fmt.Errorf("%s: %v", f.ValidateJSON, err)
	}
	fmt.Fprintf(f.stdout, "%s: valid %s report, %d figures\n", f.ValidateJSON, r.Schema, len(r.Figures))
	for _, w := range r.Warnings() {
		fmt.Fprintf(f.stderr, "warning: %s: %s\n", f.ValidateJSON, w)
	}
	return nil
}

// Run is the live output state of one command invocation, from Start
// to Finish. The command attaches the non-nil fields to its run.
type Run struct {
	Rec      *repro.TraceRecorder // set by -trace or -series
	Progress *telemetry.Progress  // set by -progress; silent counters under -serve
	Stats    *telemetry.Collector // set by -runstats or -serve
	Metrics  *telemetry.Metrics   // set by -serve

	f         *Flags
	files     []*os.File // -stream sinks, closed by Finish
	stopWatch func()
	srv       *telemetry.Server
}

// Start sets up the run's outputs: the flight recorder, the -stream
// sinks, progress, run-stats with the peak-heap watch, and the -serve
// endpoint. gauges, when non-nil, registers the command's own gauges on
// r.Metrics before the endpoint starts serving; it runs only under
// -serve.
func (f *Flags) Start(gauges func(r *Run)) (_ *Run, err error) {
	r := &Run{f: f}
	defer func() {
		if err != nil {
			r.release()
		}
	}()
	if f.Trace != "" || f.Series != "" {
		r.Rec = repro.NewTraceRecorder(repro.TraceConfig{SampleEvery: f.SampleEvery})
	}
	if f.Stream {
		// Attach the files as the recorder's live sink up front, so a
		// long run's trace is inspectable while it executes and a
		// crash leaves a valid prefix.
		if r.Rec == nil {
			return nil, errors.New("-stream requires -trace and/or -series")
		}
		events, err := r.create(f.Trace)
		if err != nil {
			return nil, err
		}
		series, err := r.create(f.Series)
		if err != nil {
			return nil, err
		}
		if err := r.Rec.StreamTo(events, series); err != nil {
			return nil, err
		}
	}
	if f.Progress {
		r.Progress = telemetry.NewProgress(f.stderr, f.name)
	} else if f.Serve != "" {
		r.Progress = telemetry.NewProgress(nil, f.name)
	}
	if f.RunStats || f.Serve != "" {
		r.Stats = telemetry.NewCollector()
		r.stopWatch = r.Stats.StartHeapWatch(0)
	}
	if f.Serve != "" {
		r.Metrics = telemetry.NewMetrics()
		if gauges != nil {
			gauges(r)
		}
		stats := r.Stats
		r.Metrics.GaugeFunc(f.name+"_peak_heap_bytes", func() float64 { return float64(stats.PeakHeap()) })
		srv, err := telemetry.Serve(f.Serve, r.Metrics)
		if err != nil {
			return nil, err
		}
		r.srv = srv
		fmt.Fprintf(f.stderr, "telemetry: serving http://%s/metrics (and /debug/vars, /debug/pprof)\n", srv.Addr())
	}
	return r, nil
}

// create opens one -stream sink; an empty path means no sink. The
// result is an io.Writer so a missing file stays a nil interface.
func (r *Run) create(path string) (io.Writer, error) {
	if path == "" {
		return nil, nil
	}
	file, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	r.files = append(r.files, file)
	return file, nil
}

// release closes what a failed Start had opened.
func (r *Run) release() {
	for _, file := range r.files {
		file.Close()
	}
	if r.stopWatch != nil {
		r.stopWatch()
	}
}

// Finish closes the run's outputs in order: run-stats and trace
// summary into report (nil for commands without the report flags),
// the validated -json report, the trace files with their "wrote"
// lines, the ring-overflow note, the run-stats table, report warnings,
// and finally the -serve endpoint after any -serve-linger.
func (r *Run) Finish(report *repro.BenchReport) (err error) {
	f, rec := r.f, r.Rec
	if r.srv != nil {
		defer func() {
			if cerr := r.srv.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if r.stopWatch != nil {
		r.stopWatch()
	}
	if report != nil {
		if r.Stats != nil {
			report.SetRunStats(r.Stats)
		}
		if rec != nil {
			report.SetTraceInfo(len(rec.Events()), len(rec.Samples()), rec.Dropped(), rec.Stride(), f.Stream)
			if r.Metrics != nil {
				r.Metrics.Gauge(f.name + "_trace_dropped_events").Set(float64(rec.Dropped()))
				r.Metrics.Gauge(f.name + "_trace_sampler_stride").Set(float64(rec.Stride()))
			}
		}
		if f.JSON != "" {
			// An invalid report (half-empty grid, NaN metric) fails
			// the invocation rather than shipping a broken artifact.
			if err := report.Validate(); err != nil {
				return err
			}
			if err := WriteFile(f.JSON, report.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(f.stdout, "wrote JSON report to %s (%d figures)\n", f.JSON, len(report.Figures))
		}
	}
	if rec != nil {
		if err := r.finishTrace(); err != nil {
			return err
		}
		telemetry.WarnDropped(f.stderr, rec.Dropped())
	}
	if report != nil {
		if f.RunStats {
			fmt.Fprint(f.stderr, report.RunStats.Format())
		}
		for _, w := range report.Warnings() {
			fmt.Fprintf(f.stderr, "warning: %s\n", w)
		}
	}
	if r.srv != nil && f.ServeLinger > 0 {
		fmt.Fprintf(f.stderr, "telemetry: lingering %s on http://%s\n", f.ServeLinger, r.srv.Addr())
		time.Sleep(f.ServeLinger)
	}
	return nil
}

// finishTrace writes the trace files, or under -stream flushes and
// closes them, and prints one "wrote" line per file. The counts are
// the recorder's retained volumes in both modes; past ring or series
// bounds a streamed file holds a lossless superset, which the
// ring-overflow note flags.
func (r *Run) finishTrace() error {
	f, rec := r.f, r.Rec
	var err error
	if f.Stream {
		err = rec.FlushStream()
		for _, file := range r.files {
			if cerr := file.Close(); err == nil {
				err = cerr
			}
		}
	} else {
		if f.Trace != "" {
			err = WriteFile(f.Trace, func(w io.Writer) error { return repro.WriteTraceEvents(w, rec.Events()) })
		}
		if f.Series != "" && err == nil {
			err = WriteFile(f.Series, func(w io.Writer) error { return repro.WriteTraceSeries(w, rec.Samples()) })
		}
	}
	if err != nil {
		return err
	}
	if f.Trace != "" {
		fmt.Fprintf(f.stdout, "wrote %d events to %s\n", len(rec.Events()), f.Trace)
	}
	if f.Series != "" {
		fmt.Fprintf(f.stdout, "wrote %d samples to %s (stride %d ticks)\n", len(rec.Samples()), f.Series, rec.Stride())
	}
	return nil
}

// WriteFile creates path, hands it to write, and closes it, returning
// the first error.
func WriteFile(path string, write func(io.Writer) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(file)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}

// Check is the commands' error exit: a non-nil err is printed on stderr
// as one line and the process exits with status 1.
func Check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
