package hotbench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// FuzzReadReport feeds arbitrary bytes to the hotbench/v1 reader. No
// input may panic it, an accepted report must be a fixed point of
// write-then-read (writing it, reading that back and writing again
// yields the same bytes), and an accepted report must pass
// Compare against itself.
func FuzzReadReport(f *testing.F) {
	committed, err := os.ReadFile("../../BENCH_hotpath.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	f.Add([]byte(`{"schema":"hotbench/v1","benchmarks":[{"name":"A","samples":[{"iterations":1,"ns_per_op":-0}]}]}`))
	f.Add([]byte(`{"schema":"hotbench/v1","benchmarks":[{"name":"A","samples":[{"iterations":1,"ns_per_op":1}]},{"name":"A","samples":[{"iterations":1,"ns_per_op":2}]}]}`))
	f.Add([]byte(`{"schema":"hotbench/v1","benchmarks":[{"name":"A","samples":[{"iterations":1,"ns_per_op":-5}]}]} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadReport(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := r.WriteJSON(&first); err != nil {
			t.Fatalf("writing decoded report: %v", err)
		}
		back, err := ReadReport(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading written report: %v\n%s", err, first.Bytes())
		}
		if err := back.WriteJSON(&second); err != nil {
			t.Fatalf("rewriting report: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("report round trip unstable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
		if errs := Compare(r, r, 0.10); len(errs) != 0 {
			t.Fatalf("accepted report fails against itself: %v", errs)
		}
	})
}

// TestReadReportRejects pins the reader's refusals: each input would
// otherwise decode into a report Compare cannot judge soundly.
func TestReadReportRejects(t *testing.T) {
	sample := func(s string) string {
		return `{"schema":"hotbench/v1","benchmarks":[{"name":"A","samples":[` + s + `]}]}`
	}
	for name, in := range map[string]string{
		"duplicate name": `{"schema":"hotbench/v1","benchmarks":[` +
			`{"name":"A","samples":[{"iterations":1,"ns_per_op":1}]},` +
			`{"name":"A","samples":[{"iterations":1,"ns_per_op":2}]}]}`,
		"negative ns":     sample(`{"iterations":1,"ns_per_op":-1}`),
		"zero iterations": sample(`{"iterations":0,"ns_per_op":1}`),
		"negative bytes":  sample(`{"iterations":1,"ns_per_op":1,"bytes_per_op":-1}`),
		"negative allocs": sample(`{"iterations":1,"ns_per_op":1,"allocs_per_op":-1}`),
		"no samples":      sample(``),
		"wrong schema":    `{"schema":"hotbench/v0","benchmarks":[]}`,
	} {
		if _, err := ReadReport(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %s", name, in)
		}
	}
}
