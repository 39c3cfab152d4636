package trace

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// streamInto attaches a streaming sink backed by fresh buffers and
// returns them.
func streamInto(t *testing.T, rec *Recorder) (events, series *bytes.Buffer) {
	t.Helper()
	events, series = new(bytes.Buffer), new(bytes.Buffer)
	if err := rec.StreamTo(events, series); err != nil {
		t.Fatalf("StreamTo: %v", err)
	}
	return events, series
}

// TestStreamMatchesBatchSingleRun locks the core streaming contract:
// for a run that never overflows the ring or decimates the series, the
// streamed JSONL and CSV bytes are identical to the batch encoders'
// output.
func TestStreamMatchesBatchSingleRun(t *testing.T) {
	streamed := NewRecorder(Config{})
	ev, sm := streamInto(t, streamed)
	batch := NewRecorder(Config{})
	for _, rec := range []*Recorder{streamed, batch} {
		fillShard(rec, 0)
	}
	if err := streamed.FlushStream(); err != nil {
		t.Fatalf("FlushStream: %v", err)
	}
	wantJSONL, wantCSV := encode(t, batch)
	if !bytes.Equal(ev.Bytes(), wantJSONL) {
		t.Errorf("streamed JSONL differs from batch:\n%q\nvs\n%q", ev.Bytes(), wantJSONL)
	}
	if !bytes.Equal(sm.Bytes(), wantCSV) {
		t.Errorf("streamed CSV differs from batch:\n%q\nvs\n%q", sm.Bytes(), wantCSV)
	}
	if len(wantJSONL) == 0 || len(wantCSV) == 0 {
		t.Fatal("batch output is empty; the test recorded nothing")
	}
}

// TestStreamMatchesBatchSharded locks the parallel-merge contract:
// shards filled concurrently spool their streams privately, and after
// MergeShards the spliced stream is byte-identical to the batch merge
// — the same guarantee the batch path gives traced grids at any
// parallelism.
func TestStreamMatchesBatchSharded(t *testing.T) {
	const n = 5
	build := func(stream bool) (jsonl, csv []byte) {
		parent := NewRecorder(Config{})
		var ev, sm *bytes.Buffer
		if stream {
			ev, sm = streamInto(t, parent)
		}
		shards := make([]*Recorder, n)
		for i := 0; i < n; i++ {
			shards[i] = parent.Shard(i, fmt.Sprintf("cell-%d", i))
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				fillShard(shards[i], i)
			}(i)
		}
		wg.Wait()
		parent.MergeShards()
		if stream {
			if err := parent.FlushStream(); err != nil {
				t.Errorf("FlushStream: %v", err)
			}
			return ev.Bytes(), sm.Bytes()
		}
		jsonl, csv = encode(t, parent)
		return jsonl, csv
	}
	wantJSONL, wantCSV := build(false)
	gotJSONL, gotCSV := build(true)
	if !bytes.Equal(gotJSONL, wantJSONL) {
		t.Errorf("streamed sharded JSONL differs from batch:\n%q\nvs\n%q", gotJSONL, wantJSONL)
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("streamed sharded CSV differs from batch:\n%q\nvs\n%q", gotCSV, wantCSV)
	}
	if len(wantJSONL) == 0 || len(wantCSV) == 0 {
		t.Fatal("batch output is empty; the test recorded nothing")
	}
}

// lineAtomicWriter fails the test if any single Write ends mid-line,
// and keeps a copy of everything written. Crash-safety depends on the
// sink only handing the underlying writer whole lines.
type lineAtomicWriter struct {
	t   *testing.T
	buf bytes.Buffer
}

func (w *lineAtomicWriter) Write(p []byte) (int, error) {
	if len(p) > 0 && p[len(p)-1] != '\n' {
		w.t.Errorf("write ends mid-line: %q", p)
	}
	return w.buf.Write(p)
}

// TestStreamCrashPrefixValid locks the crash contract: every write to
// the underlying sink ends on a line boundary, so killing the process
// mid-run leaves parseable JSONL/CSV prefixes of the final files.
func TestStreamCrashPrefixValid(t *testing.T) {
	rec := NewRecorder(Config{})
	ev := &lineAtomicWriter{t: t}
	sm := &lineAtomicWriter{t: t}
	if err := rec.StreamTo(ev, sm); err != nil {
		t.Fatalf("StreamTo: %v", err)
	}
	for i := 0; i < 200; i++ {
		rec.SetNow(uint64(i))
		rec.Handle(0, "guest").Event(EvPromote, uint64(i), 0, 9, 512, "threshold")
		if rec.SampleTick(uint64(i)) {
			rec.AddSample(Sample{VM: 0, FreePages: uint64(i)})
		}
	}
	// Mid-run, without flushing: whatever reached the writers must be a
	// valid prefix — parseable and a prefix of the final bytes.
	midEv, midSm := ev.buf.String(), sm.buf.String()
	if _, err := ReadEventsJSONL(strings.NewReader(midEv)); err != nil {
		t.Errorf("mid-run event stream unparseable: %v", err)
	}
	if midSm != "" {
		if _, err := ReadSeriesCSV(strings.NewReader(midSm)); err != nil {
			t.Errorf("mid-run series unparseable: %v", err)
		}
	}
	if err := rec.FlushStream(); err != nil {
		t.Fatalf("FlushStream: %v", err)
	}
	if !strings.HasPrefix(ev.buf.String(), midEv) || !strings.HasPrefix(sm.buf.String(), midSm) {
		t.Error("mid-run snapshot is not a prefix of the final stream")
	}
	if _, err := ReadEventsJSONL(bytes.NewReader(ev.buf.Bytes())); err != nil {
		t.Errorf("final event stream unparseable: %v", err)
	}
	if _, err := ReadSeriesCSV(bytes.NewReader(sm.buf.Bytes())); err != nil {
		t.Errorf("final series unparseable: %v", err)
	}
}

// TestStreamSupersetPastBounds locks the documented divergence: when
// the ring overflows, the batch export keeps only the retained tail
// while the stream holds every event — a lossless superset whose tail
// equals the batch file.
func TestStreamSupersetPastBounds(t *testing.T) {
	rec := NewRecorder(Config{EventCap: 4})
	ev, _ := streamInto(t, rec)
	for i := 0; i < 10; i++ {
		rec.SetNow(uint64(i))
		rec.Handle(0, "guest").Event(EvPromote, uint64(i), 0, 9, 0, "x")
	}
	if err := rec.FlushStream(); err != nil {
		t.Fatalf("FlushStream: %v", err)
	}
	if rec.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", rec.Dropped())
	}
	var batch bytes.Buffer
	if err := WriteEventsJSONL(&batch, rec.Events()); err != nil {
		t.Fatal(err)
	}
	streamLines := strings.Count(ev.String(), "\n")
	if streamLines != 10 {
		t.Errorf("stream holds %d events, want all 10", streamLines)
	}
	if !strings.HasSuffix(ev.String(), batch.String()) {
		t.Errorf("stream tail does not match batch export:\nstream:\n%sbatch:\n%s", ev.String(), batch.String())
	}
}

// TestStreamSeriesSupersetAfterDecimation: decimation thins the
// retained series but the stream keeps every row, so every batch row
// appears in the stream.
func TestStreamSeriesSupersetAfterDecimation(t *testing.T) {
	rec := NewRecorder(Config{SampleEvery: 1, MaxSamples: 8})
	_, sm := streamInto(t, rec)
	added := 0
	for tick := uint64(1); tick <= 100; tick++ {
		rec.SetNow(tick)
		if rec.SampleTick(tick) {
			rec.AddSample(Sample{VM: -1, FreePages: tick})
			added++
		}
	}
	if err := rec.FlushStream(); err != nil {
		t.Fatalf("FlushStream: %v", err)
	}
	if rec.Stride() == 1 {
		t.Fatal("series never decimated; test exercises nothing")
	}
	var batch bytes.Buffer
	if err := WriteSeriesCSV(&batch, rec.Samples()); err != nil {
		t.Fatal(err)
	}
	streamRows := make(map[string]bool)
	for _, line := range strings.Split(sm.String(), "\n") {
		streamRows[line] = true
	}
	batchLines := strings.Split(strings.TrimRight(batch.String(), "\n"), "\n")
	for _, line := range batchLines {
		if !streamRows[line] {
			t.Errorf("batch row missing from stream: %q", line)
		}
	}
	// The stream holds every row that passed SampleTick (header + added),
	// while the batch export was thinned below that by decimation.
	if got := strings.Count(sm.String(), "\n"); got != added+1 {
		t.Errorf("stream holds %d lines, want %d (header + %d added rows)", got, added+1, added)
	}
	if len(rec.Samples()) >= added {
		t.Errorf("batch kept %d samples of %d added; decimation should have thinned it", len(rec.Samples()), added)
	}
}

// TestStreamToRejectsLateAttach: the sink must see the run from the
// start; attaching after recording began (or twice) errors instead of
// producing a file with a silent hole.
func TestStreamToRejectsLateAttach(t *testing.T) {
	rec := NewRecorder(Config{})
	rec.SetNow(1)
	rec.BeginPhase("p")
	if err := rec.StreamTo(new(bytes.Buffer), nil); err == nil {
		t.Error("StreamTo after recording began must error")
	}

	rec2 := NewRecorder(Config{})
	streamInto(t, rec2)
	if err := rec2.StreamTo(new(bytes.Buffer), nil); err == nil {
		t.Error("second StreamTo must error")
	}
	if rec2.sink == nil {
		t.Error("no sink attached to a streaming recorder")
	}
}
