package repro

import (
	"bytes"
	"testing"
)

// FuzzReadBenchReport feeds arbitrary bytes to the report reader and
// then to Validate. Neither may panic, and an accepted report must be a
// fixed point of write-then-read: writing it, reading that back and
// writing again yields the same bytes, with the same Validate verdict.
func FuzzReadBenchReport(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleReport().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema":"paperbench/v1","figures":[{"name":"x","cells":[{"system":"s","metrics":{"m":-0}}]}]}`))
	f.Add([]byte(`{"schema":"paperbench/v1","figures":null,"runstats":{"wall_ms":-1,"cells":[{}]}} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadBenchReport(bytes.NewReader(data))
		if err != nil {
			return
		}
		verdict := r.Validate()
		var first, second bytes.Buffer
		if err := r.WriteJSON(&first); err != nil {
			t.Fatalf("writing decoded report: %v", err)
		}
		back, err := ReadBenchReport(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading written report: %v\n%s", err, first.Bytes())
		}
		if err := back.WriteJSON(&second); err != nil {
			t.Fatalf("rewriting report: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("report round trip unstable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
		if (verdict == nil) != (back.Validate() == nil) {
			t.Fatalf("Validate verdict changed across the round trip: %v vs %v", verdict, back.Validate())
		}
	})
}
