package main

import (
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"repro/cmd/internal/runflags"
	"repro/internal/hotbench"
)

// benchExport runs the hot-path suite count times and writes the
// hotbench/v1 JSON report, optionally capturing a CPU profile of the
// run (the artifact CI uploads so a regression comes with the profile
// that explains it).
func benchExport(path string, count int, profilePath string) error {
	if profilePath != "" {
		f, err := os.Create(profilePath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("wrote CPU profile to %s\n", profilePath)
		}()
	}
	rep := hotbench.Run(count)
	if err := runflags.WriteFile(path, func(w io.Writer) error { return rep.WriteJSON(w) }); err != nil {
		return err
	}
	for _, b := range rep.Benchmarks {
		fmt.Printf("%-20s %12.1f ns/op (median of %d)\n", b.Name, b.MedianNs(), len(b.Samples))
	}
	fmt.Printf("wrote hot-path benchmark report to %s\n", path)
	return nil
}

// benchFormat renders a hotbench JSON report as Go benchmark text on
// stdout, the format benchstat diffs.
func benchFormat(path string) error {
	rep, err := readBenchReport(path)
	if err != nil {
		return err
	}
	return rep.WriteGoBench(os.Stdout)
}

// benchCompare gates a fresh report against the committed baseline:
// "base.json,new.json" fails when new regresses past the tolerance
// (time) or at all (allocs).
func benchCompare(spec string, tol float64) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-bench-compare wants BASE.json,NEW.json")
	}
	base, err := readBenchReport(parts[0])
	if err != nil {
		return err
	}
	cur, err := readBenchReport(parts[1])
	if err != nil {
		return err
	}
	errs := hotbench.Compare(base, cur, tol)
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "regression: %v\n", err)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s: %d regressions vs %s", parts[1], len(errs), parts[0])
	}
	fmt.Printf("%s: no regressions vs %s (tolerance %.0f%%, allocs exact)\n",
		parts[1], parts[0], tol*100)
	return nil
}

func readBenchReport(path string) (*hotbench.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := hotbench.ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return rep, nil
}
