package data

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"
)

// writePipelineFile materializes n two-attribute tuples into a columnar
// file with the given block size and returns its path and the tuples.
func writePipelineFile(t *testing.T, n, blockRows int) (string, []Tuple) {
	t.Helper()
	schema := MustSchema([]Attribute{
		{Name: "a", Kind: Numeric},
		{Name: "b", Kind: Numeric},
	}, 2)
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{Values: []float64{float64(i), float64(i % 97)}, Class: i % 2}
	}
	path := t.TempDir() + "/p.boatc"
	if _, err := WriteColFile(path, NewMemSource(schema, tuples), blockRows); err != nil {
		t.Fatal(err)
	}
	return path, tuples
}

// pipeShape is one depth x decode-worker setting of the pipeline.
type pipeShape struct{ depth, workers int }

// pipeShapes is the sweep the determinism and error-ordering tests run,
// ending with the setting every scan uses.
var pipeShapes = []pipeShape{
	{1, 1}, {4, 1}, {4, 4}, {8, 2}, {pipelineDepth, decodeWorkers()},
}

// drainChunks reads sc to the end in chunks of chunkRows and returns the
// delivered tuples in order, with the scan's terminal error (nil at EOF).
func drainChunks(sc ChunkScanner, width, chunkRows int) ([]Tuple, error) {
	defer sc.Close()
	ch := NewChunk(width, chunkRows)
	var out []Tuple
	for {
		ch.Reset()
		err := sc.NextChunk(ch)
		out = append(out, ch.GatherRows(nil)...)
		if err == io.EOF || err == nil && ch.Len() == 0 {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// drainPipeline reads the whole file through a pipeline of the given
// shape and returns the delivered tuples in order.
func drainPipeline(t *testing.T, path string, sh pipeShape, obs PipelineObserver, chunkRows int) []Tuple {
	t.Helper()
	s, err := OpenColFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.scanPipeline(sh.depth, sh.workers, obs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainChunks(sc, 2, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestPipelineDeterminism is the pipeline's core contract: the delivered
// tuple stream is the written tuple sequence at every depth, worker count
// and consumer chunk size.
func TestPipelineDeterminism(t *testing.T) {
	path, tuples := writePipelineFile(t, 1300, 64) // 21 blocks, short tail
	for _, sh := range pipeShapes {
		for _, chunkRows := range []int{64, 100, 512} {
			name := fmt.Sprintf("d%d-w%d-c%d", sh.depth, sh.workers, chunkRows)
			requireTuples(t, name, drainPipeline(t, path, sh, nil, chunkRows), tuples)
		}
	}
}

// TestPipelineErrorOrdering: an error in block k surfaces only after every
// block before k was delivered, on the same ordered path as the data, at
// every depth, worker count and consumer chunk size.
func TestPipelineErrorOrdering(t *testing.T) {
	path, tuples := writePipelineFile(t, 1300, 64)
	s, err := OpenColFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find block 5's offset by walking the length prefixes, then flip a
	// payload byte.
	off := s.headerLen
	for b := 0; b < 5; b++ {
		off += 4 + blockLenAt(t, path, off) + 4
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 1)
	if _, err := f.ReadAt(raw, off+20); err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0x55
	if _, err := f.WriteAt(raw, off+20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, sh := range pipeShapes {
		for _, chunkRows := range []int{64, 100, 512} {
			name := fmt.Sprintf("d%d-w%d-c%d", sh.depth, sh.workers, chunkRows)
			sc, err := s.scanPipeline(sh.depth, sh.workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, scanErr := drainChunks(sc, 2, chunkRows)
			if !errors.Is(scanErr, ErrColChecksum) {
				t.Fatalf("%s: scan error %v, want ErrColChecksum", name, scanErr)
			}
			var be *BlockError
			if !errors.As(scanErr, &be) || be.Block != 5 {
				t.Fatalf("%s: error %v, want BlockError at block 5", name, scanErr)
			}
			// Blocks 0-4 arrive intact and in order before the error.
			requireTuples(t, name, got, tuples[:5*64])
		}
	}
}

// requireGoroutinesSettle waits for the goroutine count to return to the
// baseline, failing if pipeline goroutines leak.
func requireGoroutinesSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPipelineEarlyClose: abandoning a scan mid-stream reclaims the reader
// and every decode worker, whether or not any chunk was consumed.
func TestPipelineEarlyClose(t *testing.T) {
	path, _ := writePipelineFile(t, 2000, 64)
	baseline := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		s, err := OpenColFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := s.scanPipeline(4, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if round > 0 { // round 0 closes without consuming anything
			ch := NewChunk(2, 64)
			if err := sc.NextChunk(ch); err != nil {
				t.Fatal(err)
			}
		}
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sc.Close(); err != nil { // Close is idempotent
			t.Fatalf("second Close: %v", err)
		}
	}
	requireGoroutinesSettle(t, baseline)
}

// TestPipelineNextAfterClose: a closed pipeline refuses further reads
// instead of deadlocking on its torn-down ring.
func TestPipelineNextAfterClose(t *testing.T) {
	path, _ := writePipelineFile(t, 200, 64)
	s, err := OpenColFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.scanPipeline(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sc.NextChunk(NewChunk(2, 64)); err == nil || err == io.EOF {
		t.Fatalf("NextChunk after Close = %v, want an error", err)
	}
}

// TestPipelineStats: a completed pipelined scan reports its shape and
// volumes.
func TestPipelineStats(t *testing.T) {
	path, _ := writePipelineFile(t, 1300, 64)
	s, err := OpenColFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.scanPipeline(4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ch := NewChunk(2, 256)
	for {
		ch.Reset()
		if err := sc.NextChunk(ch); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if ch.Len() == 0 {
			break
		}
	}
	pr, ok := sc.(PipelineReporter)
	if !ok {
		t.Fatal("pipelined scanner does not report stats")
	}
	ps := pr.PipelineStats()
	if !ps.Enabled || ps.Depth != 4 || ps.Workers != 2 {
		t.Fatalf("stats = %+v, want enabled depth 4 workers 2", ps)
	}
	if ps.Blocks != s.Blocks() {
		t.Fatalf("stats saw %d blocks, want %d", ps.Blocks, s.Blocks())
	}
	if ps.PhysBytes < s.SizeBytes() {
		t.Fatalf("PhysBytes = %d, want >= payload %d", ps.PhysBytes, s.SizeBytes())
	}
	if ps.Start.IsZero() {
		t.Fatal("stats carry no start time")
	}
	phys, ok := sc.(PhysicalReader)
	if !ok || phys.PhysicalBytesRead() != ps.PhysBytes {
		t.Fatalf("PhysicalBytesRead inconsistent with stats")
	}
}

// TestScanChunksDefaultPipeline: every scan of a columnar file runs the
// pipeline at depth 4 with min(4, GOMAXPROCS) decode workers.
func TestScanChunksDefaultPipeline(t *testing.T) {
	path, tuples := writePipelineFile(t, 300, 64)
	s, err := OpenColFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.ScanChunks()
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainChunks(sc, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	requireTuples(t, "default scan", got, tuples)
	ps := sc.(PipelineReporter).PipelineStats()
	if want := min(4, runtime.GOMAXPROCS(0)); ps.Depth != 4 || ps.Workers != want {
		t.Fatalf("default scan ran depth %d with %d workers, want depth 4 with %d", ps.Depth, ps.Workers, want)
	}
}

// TestScanChunksPipelinedFallback: sources without a pipeline still scan
// through the uniform entry point.
func TestScanChunksPipelinedFallback(t *testing.T) {
	schema := MustSchema([]Attribute{{Name: "a", Kind: Numeric}}, 2)
	tuples := make([]Tuple, 300)
	for i := range tuples {
		tuples[i] = Tuple{Values: []float64{float64(i)}, Class: i % 2}
	}
	sc, err := ScanChunksPipelined(NewMemSource(schema, tuples), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ch := NewChunk(1, 128)
	rows := 0
	for {
		ch.Reset()
		err := sc.NextChunk(ch)
		rows += ch.Len()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ch.Len() == 0 {
			break
		}
	}
	if rows != 300 {
		t.Fatalf("fallback scan saw %d rows, want 300", rows)
	}
}

// recordingObserver captures every live backpressure reading the pipeline
// emits. Readings arrive on the consumer's goroutine (one per delivered
// block), so no locking is needed here.
type recordingObserver struct {
	readings []PipelineLive
}

func (r *recordingObserver) ObservePipeline(l PipelineLive) {
	r.readings = append(r.readings, l)
}

// TestPipelineObserver: the observer sees exactly one reading per
// delivered block, with monotonically increasing block counts and sane
// gauge values, while the delivered data stays the written tuples.
func TestPipelineObserver(t *testing.T) {
	path, tuples := writePipelineFile(t, 1300, 64) // 21 blocks
	obs := &recordingObserver{}
	requireTuples(t, "observed scan", drainPipeline(t, path, pipeShape{4, 2}, obs, 64), tuples)
	if len(obs.readings) != 21 {
		t.Fatalf("observer saw %d readings, want one per block (21)", len(obs.readings))
	}
	for i, l := range obs.readings {
		if l.Blocks != int64(i+1) {
			t.Fatalf("reading %d: Blocks = %d, want %d", i, l.Blocks, i+1)
		}
		if l.InFlight < 0 || l.InFlight > 4 {
			t.Fatalf("reading %d: InFlight = %d outside [0, depth]", i, l.InFlight)
		}
		if l.Ring < 0 || l.Read < 0 || l.Decode < 0 || l.Deliver < 0 {
			t.Fatalf("reading %d: negative gauge: %+v", i, l)
		}
	}
	last := obs.readings[len(obs.readings)-1]
	if last.Decode <= 0 {
		t.Fatalf("final reading has zero decode time: %+v", last)
	}
}

// TestPipelineObserverFallback: non-pipelined sources never emit
// readings — the observer hook is a pipeline feature, not a scan feature.
func TestPipelineObserverFallback(t *testing.T) {
	schema := MustSchema([]Attribute{{Name: "a", Kind: Numeric}}, 2)
	tuples := make([]Tuple, 100)
	for i := range tuples {
		tuples[i] = Tuple{Values: []float64{float64(i)}, Class: 0}
	}
	obs := &recordingObserver{}
	sc, err := ScanChunksPipelined(NewMemSource(schema, tuples), obs)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ch := NewChunk(1, 64)
	for {
		ch.Reset()
		if err := sc.NextChunk(ch); err == io.EOF || ch.Len() == 0 {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if len(obs.readings) != 0 {
		t.Fatalf("fallback scan emitted %d pipeline readings", len(obs.readings))
	}
}
