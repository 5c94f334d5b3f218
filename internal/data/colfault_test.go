// Fault-injection coverage for the columnar read path. These tests live in
// package data_test because they drive internal/faultfs, which itself
// imports internal/data.
package data_test

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/faultfs"
)

func writeFaultFile(t *testing.T, n, blockRows int) (string, []data.Tuple) {
	t.Helper()
	schema := data.MustSchema([]data.Attribute{
		{Name: "a", Kind: data.Numeric},
		{Name: "b", Kind: data.Numeric},
	}, 2)
	tuples := make([]data.Tuple, n)
	for i := range tuples {
		tuples[i] = data.Tuple{Values: []float64{float64(i), float64(i % 13)}, Class: i % 2}
	}
	path := t.TempDir() + "/f.boatc"
	if _, err := data.WriteColFile(path, data.NewMemSource(schema, tuples), blockRows); err != nil {
		t.Fatal(err)
	}
	return path, tuples
}

// noSleep is the retry policy used under injection: generous attempts, no
// wall-clock waits.
var noSleep = data.RetryPolicy{Attempts: 6, Sleep: func(time.Duration) {}}

// drainCol opens a scan with open and drains it in chunks of chunkRows,
// returning the delivered tuples in order and the scan's terminal error
// (nil at EOF).
func drainCol(open func() (data.ChunkScanner, error), chunkRows int) ([]data.Tuple, error) {
	sc, err := open()
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	ch := data.NewChunk(2, chunkRows)
	var out []data.Tuple
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

// requirePrefix fails unless got is the first len(got) tuples of want.
func requirePrefix(t *testing.T, got, want []data.Tuple) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("%d tuples delivered, only %d written", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("tuple %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestColFaultTransientOpenRetried: transient faults on the scan's open are
// absorbed by the retry policy; the scan then delivers everything.
func TestColFaultTransientOpenRetried(t *testing.T) {
	path, tuples := writeFaultFile(t, 500, 64)
	fs := faultfs.New(nil, faultfs.Config{
		Seed: 1, OpenProb: 1, TransientFraction: 1, MaxFaults: 2,
	})
	src, err := data.OpenColFile(path, data.ColOptions{FS: fs, Retry: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainCol(src.ScanChunks, 64)
	if err != nil || len(got) != len(tuples) {
		t.Fatalf("scan = (%d rows, %v), want (%d, nil)", len(got), err, len(tuples))
	}
	requirePrefix(t, got, tuples)
	if st := fs.Stats(); st.Faults != 2 || st.Transient != 2 {
		t.Fatalf("injected %+v, want 2 transient faults consumed by retries", st)
	}
}

// TestColFaultTransientReadRetried: transient mid-scan read faults retry in
// place without corrupting the delivered stream, at every pipeline depth.
func TestColFaultTransientReadRetried(t *testing.T) {
	path, tuples := writeFaultFile(t, 2000, 64)
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			// Every read faults until the cap: bufio coalesces the small
			// file into very few underlying reads, so probabilistic
			// injection would rarely fire.
			fs := faultfs.New(nil, faultfs.Config{
				Seed: 7, ReadProb: 1, TransientFraction: 1, MaxFaults: 4,
			})
			src, err := data.OpenColFile(path, data.ColOptions{FS: fs, Retry: noSleep})
			if err != nil {
				t.Fatal(err)
			}
			got, err := drainCol(func() (data.ChunkScanner, error) {
				return src.ScanPipelineForTest(depth, 2)
			}, 100)
			if err != nil || len(got) != len(tuples) {
				t.Fatalf("scan = (%d rows, %v), want (%d, nil)", len(got), err, len(tuples))
			}
			requirePrefix(t, got, tuples)
			if st := fs.Stats(); st.Faults == 0 {
				t.Fatal("injection never fired; the test exercised nothing")
			}
		})
	}
}

// TestColFaultPermanentOpen: permanent open faults are not retried and
// surface from the scan's open before any goroutine starts.
func TestColFaultPermanentOpen(t *testing.T) {
	path, _ := writeFaultFile(t, 200, 64)
	fs := faultfs.New(nil, faultfs.Config{
		Seed: 3, OpenProb: 1, TransientFraction: 0, MaxFaults: 1,
	})
	src, err := data.OpenColFile(path, data.ColOptions{FS: fs, Retry: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	if _, err := src.ScanChunks(); err == nil {
		t.Fatal("scan opened through a permanent fault")
	} else {
		var f *faultfs.Fault
		if !errors.As(err, &f) {
			t.Fatalf("error %v does not expose the injected fault", err)
		}
	}
	if st := fs.Stats(); st.Faults != 1 {
		t.Fatalf("injected %+v, want exactly one permanent fault (no retries)", st)
	}
	waitGoroutines(t, baseline)
}

// failNthReadFS fails the nth underlying read with a permanent error,
// deterministically, so the fault lands mid-stream regardless of bufio's
// read coalescing.
type failNthReadFS struct {
	n     int64
	reads atomic.Int64
}

func (f *failNthReadFS) CreateTemp(dir, pattern string) (data.File, error) {
	return data.OsFS{}.CreateTemp(dir, pattern)
}
func (f *failNthReadFS) Remove(name string) error { return data.OsFS{}.Remove(name) }
func (f *failNthReadFS) Rename(oldpath, newpath string) error {
	return data.OsFS{}.Rename(oldpath, newpath)
}
func (f *failNthReadFS) Open(name string) (io.ReadCloser, error) {
	rc, err := data.OsFS{}.Open(name)
	if err != nil {
		return nil, err
	}
	return &failNthReader{fs: f, rc: rc}, nil
}

type failNthReader struct {
	fs *failNthReadFS
	rc io.ReadCloser
}

var errDiskGone = errors.New("simulated permanent media failure")

func (r *failNthReader) Read(p []byte) (int, error) {
	if r.fs.reads.Add(1) > r.fs.n {
		return 0, errDiskGone
	}
	// Cap read size so the stream needs many underlying reads and the
	// failure lands mid-file.
	if len(p) > 1024 {
		p = p[:1024]
	}
	return r.rc.Read(p)
}

func (r *failNthReader) Close() error { return r.rc.Close() }

// TestColFaultPermanentReadMidScan: a permanent read failure mid-stream
// surfaces from the pipelined scan after the preceding blocks were
// delivered, and Close reclaims every pipeline goroutine.
func TestColFaultPermanentReadMidScan(t *testing.T) {
	path, tuples := writeFaultFile(t, 2000, 64)
	baseline := runtime.NumGoroutine()
	fs := &failNthReadFS{n: 8} // 8 KiB in, then the disk "dies"
	src, err := data.OpenColFile(path, data.ColOptions{FS: fs, Retry: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainCol(src.ScanChunks, 64)
	if !errors.Is(err, errDiskGone) {
		t.Fatalf("scan error %v, want the injected permanent failure", err)
	}
	requirePrefix(t, got, tuples)
	rows := len(got)
	if rows <= 0 || rows >= 2000 {
		t.Fatalf("%d rows delivered, want a mid-stream prefix", rows)
	}
	if rows%64 != 0 {
		t.Fatalf("%d rows delivered, want whole blocks only", rows)
	}
	waitGoroutines(t, baseline)
}

// waitGoroutines polls until the goroutine count falls back to baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
