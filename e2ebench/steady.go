package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the subset of BENCHMARK.json the steadiness mode
// and the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readBenchmarkFile loads BENCHMARK.json from the first of paths that
// exists.
func readBenchmarkFile(paths ...string) (benchmarkFile, error) {
	var bf benchmarkFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return bf, err
		}
		if err := json.Unmarshal(b, &bf); err != nil {
			return bf, fmt.Errorf("parse %s: %w", p, err)
		}
		return bf, nil
	}
	return bf, fmt.Errorf("BENCHMARK.json not found in %v", paths)
}

// steadiness runs every workload twice, each in its own process, and
// prints each end-to-end metric's relative spread between the two runs
// against the metric's bound.
func steadiness(o options, stdout io.Writer) error {
	bf, err := readBenchmarkFile("BENCHMARK.json", "../BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	header(stdout)
	fmt.Fprintf(stdout, "# steadiness: seed=%d seconds=%v, two processes per workload\n", o.seed, o.seconds)
	fmt.Fprintf(stdout, "%-10s %-14s %12s %12s %8s %8s %s\n", "workload", "metric", "run1", "run2", "spread", "bound", "verdict")
	worst := 0.0
	for _, w := range workloads {
		var runs [2]result
		for i := range runs {
			if runs[i], err = runChild(exe, w.name, o); err != nil {
				return err
			}
		}
		for _, m := range bf.EndToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			spread := math.Abs(a-b) / ((a + b) / 2)
			verdict := "ok"
			if spread > m.Bound {
				verdict = "EXCEEDS"
			}
			if spread/m.Bound > worst {
				worst = spread / m.Bound
			}
			fmt.Fprintf(stdout, "%-10s %-14s %12.6g %12.6g %8.4f %8.4f %s\n", w.name, m.Name, a, b, spread, m.Bound, verdict)
		}
	}
	fmt.Fprintf(stdout, "# worst spread is %.2f of its bound\n", worst)
	return nil
}

// runChild runs one untraced benchmark process and parses its result.
func runChild(exe, workload string, o options) (result, error) {
	var out bytes.Buffer
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s run: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("%s result: %w", workload, err)
	}
	if !r.Correct {
		return result{}, fmt.Errorf("%s run reported incorrect output", workload)
	}
	return r, nil
}
