package runflags

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro"
)

// parse registers the full flag set on a private FlagSet, parses args,
// and captures the command's stdout and stderr.
func parse(t *testing.T, args ...string) (f *Flags, stdout, stderr *bytes.Buffer) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f = Register(fs, "test", true)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	stdout, stderr = new(bytes.Buffer), new(bytes.Buffer)
	f.stdout, f.stderr = stdout, stderr
	return f, stdout, stderr
}

// tinyRun is a traced single-VM engine run small enough for a unit
// test but long enough to emit events and several sample rows.
func tinyRun(t *testing.T, rec *repro.TraceRecorder) repro.Result {
	t.Helper()
	spec, err := repro.WorkloadByName("redis")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := repro.SystemByName("GEMINI")
	if err != nil {
		t.Fatal(err)
	}
	return repro.Run(repro.Config{
		System: sys, Workload: spec, Fragmented: true,
		Requests: 300, Seed: 1, Trace: rec,
	})
}

// tracedRun drives Start, the tiny run and Finish under args plus the
// trace flags, and returns stdout with dir masked and the two files.
func tracedRun(t *testing.T, args ...string) (stdout string, events, series []byte) {
	t.Helper()
	dir := t.TempDir()
	args = append(args, "-trace", filepath.Join(dir, "t.jsonl"),
		"-series", filepath.Join(dir, "s.csv"), "-sample-every", "8")
	f, out, _ := parse(t, args...)
	r, err := f.Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	tinyRun(t, r.Rec)
	if err := r.Finish(nil); err != nil {
		t.Fatal(err)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return strings.ReplaceAll(out.String(), dir, "DIR"), read("t.jsonl"), read("s.csv")
}

func TestStreamMatchesBatch(t *testing.T) {
	batchOut, batchEvents, batchSeries := tracedRun(t)
	streamOut, streamEvents, streamSeries := tracedRun(t, "-stream")
	if len(batchEvents) == 0 || bytes.Count(batchSeries, []byte("\n")) < 3 {
		t.Fatalf("run too small to compare: %d event bytes, series:\n%s", len(batchEvents), batchSeries)
	}
	if !bytes.Equal(batchEvents, streamEvents) {
		t.Error("streamed trace differs from the batch trace")
	}
	if !bytes.Equal(batchSeries, streamSeries) {
		t.Error("streamed series differs from the batch series")
	}
	if batchOut != streamOut {
		t.Errorf("stdout differs:\nbatch:\n%s\nstream:\n%s", batchOut, streamOut)
	}
	want := regexp.MustCompile(`^wrote [0-9]+ events to DIR/t\.jsonl\nwrote [0-9]+ samples to DIR/s\.csv \(stride 8 ticks\)\n$`)
	if !want.MatchString(batchOut) {
		t.Errorf("wrote lines = %q", batchOut)
	}
}

func TestStreamWithoutTraceFails(t *testing.T) {
	f, _, _ := parse(t, "-stream")
	if _, err := f.Start(nil); err == nil || !strings.Contains(err.Error(), "-stream requires") {
		t.Fatalf("Start = %v, want the -stream error", err)
	}
}

// writeReport runs Finish with -json and returns the report path.
func writeReport(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r.json")
	f, out, _ := parse(t, "-json", path)
	r, err := f.Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	report := repro.NewBenchReport(repro.Options{Seed: 1})
	report.Add("tiny", []repro.BenchCell{repro.ResultCell("fragmented", 0, tinyRun(t, r.Rec))})
	if err := r.Finish(report); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "wrote JSON report to "+path+" (1 figures)\n" {
		t.Fatalf("stdout = %q", got)
	}
	return path
}

func TestValidateReport(t *testing.T) {
	path := writeReport(t)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, out, _ := parse(t, "-validate-json", path)
	if err := f.ValidateReport(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	if !strings.Contains(out.String(), ": valid paperbench/v1 report, 1 figures") {
		t.Errorf("stdout = %q", out.String())
	}

	// JSON has no NaN literal: a NaN metric on disk is a decode error.
	nan := regexp.MustCompile(`"throughput": [-0-9.e+]+`).ReplaceAll(good, []byte(`"throughput": NaN`))
	if bytes.Equal(nan, good) {
		t.Fatal("no throughput metric to poison")
	}
	for name, body := range map[string][]byte{
		"truncated": good[:len(good)/2],
		"nan":       nan,
	} {
		bad := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(bad, body, 0o644); err != nil {
			t.Fatal(err)
		}
		f, _, _ := parse(t, "-validate-json", bad)
		if err := f.ValidateReport(); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("%s report: ValidateReport = %v, want an error naming the file", name, err)
		}
	}
}
