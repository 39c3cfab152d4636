package trace

// Live streaming sink for the flight recorder: events and samples are
// encoded and flushed incrementally while the run executes, instead of
// only at end-of-run export. The streamed bytes are produced by the
// same encoders as WriteEventsJSONL/WriteSeriesCSV, so whenever the
// recorder's bounds were never exceeded (no ring overflow, no series
// decimation — true for every golden and CI run) the streamed file is
// byte-identical to the batch export of the same recorder. Past the
// bounds the in-memory copy thins while the stream stays complete:
// streaming exists precisely so long-horizon runs need not hold their
// whole trace in memory (ROADMAP item 5).
//
// Sharding composes: when a streaming parent hands out shards, each
// shard spools its encoded bytes (Run tag stamped at encode time) into
// a private buffer, and MergeShards splices the spools into the parent
// stream in run order behind each shard's mark line — so a streamed
// parallel grid produces the same bytes as a sequential one.
//
// Pending bytes are buffered privately and handed to the underlying
// writer only at complete line boundaries, so a crash mid-run leaves a
// valid JSONL/CSV prefix on disk, never a torn line.

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// streamFlushBytes is the pending-buffer size that triggers a flush to
// the underlying writer. Flushes happen only between complete lines.
const streamFlushBytes = 8 * 1024

// streamSink is the live encoding state attached to one recorder.
// Root sinks write to the caller's files; shard sinks write to private
// spool buffers that MergeShards later splices into the parent.
type streamSink struct {
	events io.Writer // nil: events not streamed
	series io.Writer // nil: series not streamed
	run    int       // Run tag stamped on shard-streamed records
	stamp  bool      // true for shard sinks (parent stamps at merge in batch mode)

	evBuf bytes.Buffer // pending event lines
	enc   *json.Encoder
	smBuf bytes.Buffer // pending series rows
	csvw  *csv.Writer
	row   []string // scratch row, reused per sample

	err error // first write/encode error; the sink is inert after
}

func newStreamSink(events, series io.Writer, run int, stamp bool) *streamSink {
	s := &streamSink{events: events, series: series, run: run, stamp: stamp}
	if events != nil {
		s.enc = json.NewEncoder(&s.evBuf)
	}
	if series != nil {
		s.csvw = csv.NewWriter(&s.smBuf)
	}
	return s
}

// writeHeader emits the series CSV header row and flushes it, so even
// an immediately-crashing run leaves a parseable series file.
func (s *streamSink) writeHeader() error {
	if s.csvw == nil {
		return nil
	}
	if err := s.csvw.Write(seriesHeader()); err != nil {
		return err
	}
	s.csvw.Flush()
	if err := s.csvw.Error(); err != nil {
		return err
	}
	return s.flushSeries()
}

func (s *streamSink) fail(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

// event encodes one event onto the stream. Shard sinks stamp their run
// tag at encode time, matching what MergeShards stamps in batch mode.
func (s *streamSink) event(e Event) {
	if s == nil || s.enc == nil || s.err != nil {
		return
	}
	if s.stamp {
		e.Run = s.run
	}
	if err := s.enc.Encode(&e); err != nil {
		s.fail(err)
		return
	}
	if s.evBuf.Len() >= streamFlushBytes {
		s.fail(s.flushEvents())
	}
}

// sample encodes one series row onto the stream.
func (s *streamSink) sample(sm Sample) {
	if s == nil || s.csvw == nil || s.err != nil {
		return
	}
	if s.stamp {
		sm.Run = s.run
	}
	s.row = appendSampleRow(s.row[:0], &sm)
	if err := s.csvw.Write(s.row); err != nil {
		s.fail(err)
		return
	}
	s.csvw.Flush()
	if err := s.csvw.Error(); err != nil {
		s.fail(err)
		return
	}
	if s.smBuf.Len() >= streamFlushBytes {
		s.fail(s.flushSeries())
	}
}

// spliceEvents appends a shard spool's complete event lines.
func (s *streamSink) spliceEvents(spool *bytes.Buffer) {
	if s == nil || s.events == nil || spool == nil || s.err != nil {
		return
	}
	s.evBuf.Write(spool.Bytes())
	if s.evBuf.Len() >= streamFlushBytes {
		s.fail(s.flushEvents())
	}
}

// spliceSeries appends a shard spool's complete series rows.
func (s *streamSink) spliceSeries(spool *bytes.Buffer) {
	if s == nil || s.series == nil || spool == nil || s.err != nil {
		return
	}
	s.smBuf.Write(spool.Bytes())
	if s.smBuf.Len() >= streamFlushBytes {
		s.fail(s.flushSeries())
	}
}

// flushEvents hands the pending event lines to the underlying writer.
func (s *streamSink) flushEvents() error {
	if s.events == nil || s.evBuf.Len() == 0 {
		return nil
	}
	_, err := s.events.Write(s.evBuf.Bytes())
	s.evBuf.Reset()
	return err
}

// flushSeries hands the pending series rows to the underlying writer.
func (s *streamSink) flushSeries() error {
	if s.series == nil || s.smBuf.Len() == 0 {
		return nil
	}
	_, err := s.series.Write(s.smBuf.Bytes())
	s.smBuf.Reset()
	return err
}

// flushAll drains both pending buffers.
func (s *streamSink) flushAll() {
	if s == nil {
		return
	}
	s.fail(s.flushEvents())
	s.fail(s.flushSeries())
}

// StreamTo attaches a live streaming sink: every event pushed after
// this call is encoded as one JSONL line onto events, and every sample
// as one CSV row onto series (the header row is written — and flushed —
// immediately). Either writer may be nil to stream only one facet.
//
// Attach before anything is recorded and before any shard is handed
// out: shards created after attach spool their encoded bytes privately
// and MergeShards splices them into the parent stream in run order, so
// a streamed parallel grid is byte-identical to a sequential one. As
// long as the recorder never overflowed its event ring and never
// decimated its series, the streamed bytes equal the end-of-run
// WriteEventsJSONL/WriteSeriesCSV output exactly; past those bounds
// the stream is the lossless superset of the thinned in-memory copy.
//
// Streaming follows the recorder's concurrency contract: the goroutine
// recording into a recorder owns its sink, and MergeShards touches
// shard spools only after the shards' goroutines are done.
func (r *Recorder) StreamTo(events, series io.Writer) error {
	r.mu.Lock()
	shards := len(r.shards)
	r.mu.Unlock()
	if r.sink != nil {
		return fmt.Errorf("trace: recorder is already streaming")
	}
	if r.length > 0 || len(r.samples) > 0 || shards > 0 {
		return fmt.Errorf("trace: StreamTo must be called before recording begins")
	}
	s := newStreamSink(events, series, 0, false)
	if err := s.writeHeader(); err != nil {
		return err
	}
	r.sink = s
	return nil
}

// FlushStream drains any pending streamed bytes to the underlying
// writers and returns the sink's first error. Call after the run (and
// after MergeShards for sharded grids); no-op without a sink.
func (r *Recorder) FlushStream() error {
	if r.sink == nil {
		return nil
	}
	r.sink.flushAll()
	return r.sink.err
}
