package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestSummarizeSeriesLabelsHosts runs -series over a two-host fleet
// series: host rows are tagged -(1+host), so the summary must print
// one "host N" section per host, in host order, before the VM sections.
func TestSummarizeSeriesLabelsHosts(t *testing.T) {
	var samples []trace.Sample
	for _, tick := range []uint64{16, 32} {
		for _, vm := range []int{-1, 0, -2, 1} {
			s := trace.Sample{Tick: tick, VM: vm}
			// FMFI encodes the scope and tick so the summary's final
			// column shows which rows each section folded.
			s.FMFI[0] = float64(vm+3)/10 + float64(tick)/1000
			samples = append(samples, s)
		}
	}
	var csv bytes.Buffer
	if err := trace.WriteSeriesCSV(&csv, samples); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.csv")
	if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := summarizeSeries(&out, path); err != nil {
		t.Fatal(err)
	}
	// Sections are blank-line separated; the first block is the file
	// summary line.
	sections := strings.Split(strings.TrimSpace(out.String()), "\n\n")[1:]
	var headers []string
	for _, sec := range sections {
		headers = append(headers, strings.SplitN(sec, "\n", 2)[0])
	}
	want := []string{
		"host 0 (2 samples, ticks 16..32): FMFI by order",
		"host 1 (2 samples, ticks 16..32): FMFI by order",
		"vm 0 (2 samples, ticks 16..32): FMFI by order",
		"vm 1 (2 samples, ticks 16..32): FMFI by order",
	}
	if strings.Join(headers, "\n") != strings.Join(want, "\n") {
		t.Fatalf("section headers:\n%s\nwant:\n%s", strings.Join(headers, "\n"), strings.Join(want, "\n"))
	}
	// Each host section folds only its own rows: host 0 (tag -1) spans
	// FMFI 0.216..0.232, host 1 (tag -2) 0.116..0.132.
	for i, row := range []string{"0         0.216    0.232    0.232", "0         0.116    0.132    0.132"} {
		if !strings.Contains(sections[i], row) {
			t.Errorf("%s lacks order-0 row %q:\n%s", want[i], row, sections[i])
		}
	}
}
