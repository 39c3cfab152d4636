package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// FuzzReadEventsJSONL feeds arbitrary bytes to the event reader. It
// must never panic, and whatever it accepts must be a fixed point of
// write-then-read: encoding the decoded events, decoding that and
// encoding again yields the same bytes.
func FuzzReadEventsJSONL(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/golden_trace.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	// One seed per event type found in the golden trace, each its
	// first golden line.
	seen := map[string]bool{}
	for _, line := range bytes.SplitAfter(golden, []byte("\n")) {
		var e struct{ Type string }
		if json.Unmarshal(line, &e) == nil && !seen[e.Type] {
			seen[e.Type] = true
			f.Add(line)
		}
	}
	f.Add([]byte("{\"tick\":3,\"type\":\"Promote\",\"vm\":0,\"run\":2,\"reason\":\"<a&b>\"}\n\n"))
	f.Add([]byte("{\"tick\":1,\"type\":\"NotAnEvent\",\"vm\":0}\n"))
	f.Add([]byte("null\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEventsJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteEventsJSONL(&first, events); err != nil {
			t.Fatalf("writing decoded events: %v", err)
		}
		back, err := ReadEventsJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading written events: %v\n%s", err, first.Bytes())
		}
		if err := WriteEventsJSONL(&second, back); err != nil {
			t.Fatalf("rewriting events: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("event round trip unstable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// seriesSeed renders a small two-row series with the writer; withRun
// false drops the optional run column, as files recorded before shard
// tagging lack it.
func seriesSeed(f *testing.F, withRun bool) []byte {
	s := Sample{Tick: 8, Phase: "measure", VM: 1, Run: 3, FreePages: 77, HugeCoverage: 0.25,
		Bookings: 2, SwappedPages: 5}
	s.FMFI[9] = 0.5
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, []Sample{{Tick: 8, Phase: "measure", VM: -1}, s}); err != nil {
		f.Fatal(err)
	}
	if withRun {
		return buf.Bytes()
	}
	var out strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		cells := strings.Split(line, ",")
		if len(cells) > 4 {
			cells = append(cells[:3], cells[4:]...)
		}
		out.WriteString(strings.Join(cells, ","))
	}
	return []byte(out.String())
}

// FuzzReadSeriesCSV feeds arbitrary bytes to the series reader with
// the same properties as FuzzReadEventsJSONL: no panic, and accepted
// input decodes to samples whose encoding is a write-read fixed point.
func FuzzReadSeriesCSV(f *testing.F) {
	for _, withRun := range []bool{true, false} {
		seed := seriesSeed(f, withRun)
		if _, err := ReadSeriesCSV(bytes.NewReader(seed)); err != nil {
			f.Fatalf("seed (run column %v) does not decode: %v", withRun, err)
		}
		f.Add(seed)
	}
	f.Add([]byte("tick,vm\n1,0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := ReadSeriesCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteSeriesCSV(&first, samples); err != nil {
			t.Fatalf("writing decoded samples: %v", err)
		}
		back, err := ReadSeriesCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading written samples: %v\n%s", err, first.Bytes())
		}
		if err := WriteSeriesCSV(&second, back); err != nil {
			t.Fatalf("rewriting samples: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("series round trip unstable:\n%q\nvs\n%q", first.Bytes(), second.Bytes())
		}
	})
}
