package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/boatml/boat/internal/data"
)

func testSchema(t *testing.T) *data.Schema {
	t.Helper()
	return data.MustSchema([]data.Attribute{
		{Name: "x", Kind: data.Numeric},
		{Name: "c", Kind: data.Categorical, Cardinality: 4},
	}, 2)
}

func makeTuples(n int) []data.Tuple {
	out := make([]data.Tuple, n)
	for i := range out {
		out[i] = data.Tuple{Values: []float64{float64(i), float64(i % 4)}, Class: i % 2}
	}
	return out
}

// noSleep makes retry backoffs instantaneous in tests.
var noSleep = data.RetryPolicy{Sleep: func(time.Duration) {}}

// requireNoTemps fails if any temp file under dir survives in the
// process-wide registry or on disk. The registry is global, so only this
// test's own directory is inspected — an earlier test that failed before
// cleanup must not cascade here.
func requireNoTemps(t *testing.T, dir string) {
	t.Helper()
	var live []string
	for _, p := range data.LiveTempFiles() {
		if strings.HasPrefix(p, dir+string(os.PathSeparator)) {
			live = append(live, p)
		}
	}
	if len(live) != 0 {
		t.Fatalf("live temp files remain: %v", live)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "boat-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp files left on disk: %v", matches)
	}
}

// spillEnv builds a zero-capacity-budget environment over fs, so every
// append takes the temp-file path.
func spillEnv(dir string, fs data.FS) data.SpillEnv {
	return data.SpillEnv{Dir: dir, Budget: data.NewMemBudget(-1), FS: fs, Retry: noSleep}
}

func TestCreateFaultPermanent(t *testing.T) {
	dir := t.TempDir()
	fs := New(nil, Config{Seed: 1, CreateProb: 1})
	sb := data.NewSpillBufferEnv(testSchema(t), spillEnv(dir, fs))
	err := sb.Append(makeTuples(1)[0])
	if !data.IsSpillError(err) {
		t.Fatalf("append over failing create: err = %v, want SpillError", err)
	}
	if err := sb.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	requireNoTemps(t, dir)
}

func TestCreateFaultTransientRetried(t *testing.T) {
	dir := t.TempDir()
	fs := New(nil, Config{Seed: 1, CreateProb: 1, TransientFraction: 1, MaxFaults: 2})
	sb := data.NewSpillBufferEnv(testSchema(t), spillEnv(dir, fs))
	tuples := makeTuples(50)
	for _, tp := range tuples {
		if err := sb.Append(tp); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	got, err := data.ReadAll(sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tuples) {
		t.Fatalf("read %d of %d tuples back", len(got), len(tuples))
	}
	if fs.Stats().Faults != 2 {
		t.Errorf("faults injected = %d, want 2", fs.Stats().Faults)
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	requireNoTemps(t, dir)
}

// appendPastFlush appends enough tuples to force at least two flushes of
// the spill write buffer, returning how many were accepted before an error.
func appendPastFlush(t *testing.T, sb *data.SpillBuffer, schema *data.Schema) (accepted int, appendErr error) {
	t.Helper()
	n := 3 * (1 << 16) / data.FormatWide.TupleSize(schema)
	for _, tp := range makeTuples(n) {
		if err := sb.Append(tp); err != nil {
			return accepted, err
		}
		accepted++
	}
	return accepted, nil
}

func TestWriteFaultTransientRetried(t *testing.T) {
	dir := t.TempDir()
	fs := New(nil, Config{Seed: 7, WriteProb: 1, TransientFraction: 1, MaxFaults: 3})
	schema := testSchema(t)
	sb := data.NewSpillBufferEnv(schema, spillEnv(dir, fs))
	n, err := appendPastFlush(t, sb, schema)
	if err != nil {
		t.Fatalf("append after %d tuples: %v", n, err)
	}
	if sb.Err() != nil {
		t.Fatalf("buffer poisoned by transient faults: %v", sb.Err())
	}
	got, err := data.ReadAll(sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("read %d of %d tuples back", len(got), n)
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	requireNoTemps(t, dir)
}

func TestWriteFaultPermanentPoisonsButStaysScannable(t *testing.T) {
	dir := t.TempDir()
	// One permanent short write: half a flush lands on disk (a torn tuple),
	// the rest must stay buffered and correctly aligned.
	fs := New(nil, Config{Seed: 3, WriteProb: 1, MaxFaults: 1})
	schema := testSchema(t)
	sb := data.NewSpillBufferEnv(schema, spillEnv(dir, fs))
	defer sb.Close()
	n, appendErr := appendPastFlush(t, sb, schema)
	// The poisoning append itself succeeds logically (the tuple is
	// retained); only subsequent appends are refused.
	total := n
	if appendErr != nil {
		if !errors.Is(appendErr, data.ErrSpillPoisoned) {
			t.Fatalf("append error %v does not wrap ErrSpillPoisoned", appendErr)
		}
	} else {
		t.Fatal("expected the buffer to be poisoned")
	}
	if sb.Err() == nil {
		t.Fatal("Err() = nil on poisoned buffer")
	}
	// Every accepted tuple must read back exactly, in order, despite the
	// torn tuple at the end of the durable file prefix.
	got, err := data.ReadAll(sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("read %d of %d accepted tuples from poisoned buffer", len(got), total)
	}
	for i, tp := range got {
		if int(tp.Values[0]) != i || tp.Class != i%2 {
			t.Fatalf("tuple %d corrupted: %v", i, tp)
		}
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	requireNoTemps(t, dir)
}

func TestResetRecoversPoisonedBuffer(t *testing.T) {
	dir := t.TempDir()
	fs := New(nil, Config{Seed: 5, WriteProb: 1, MaxFaults: 1})
	schema := testSchema(t)
	sb := data.NewSpillBufferEnv(schema, spillEnv(dir, fs))
	defer sb.Close()
	if _, err := appendPastFlush(t, sb, schema); !errors.Is(err, data.ErrSpillPoisoned) {
		t.Fatalf("setup: err = %v", err)
	}
	if err := sb.Reset(); err != nil {
		t.Fatalf("reset of poisoned buffer: %v", err)
	}
	if sb.Err() != nil {
		t.Fatalf("still poisoned after reset: %v", sb.Err())
	}
	for _, tp := range makeTuples(10) {
		if err := sb.Append(tp); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
	}
	if got, err := data.ReadAll(sb); err != nil || len(got) != 10 {
		t.Fatalf("after recovery: %d tuples, err %v", len(got), err)
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	requireNoTemps(t, dir)
}

func TestRemoveFaultTransientRetried(t *testing.T) {
	dir := t.TempDir()
	fs := New(nil, Config{Seed: 11, RemoveProb: 1, TransientFraction: 1, MaxFaults: 1})
	schema := testSchema(t)
	sb := data.NewSpillBufferEnv(schema, spillEnv(dir, fs))
	for _, tp := range makeTuples(10) {
		if err := sb.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := sb.Close(); err != nil {
		t.Fatalf("close with transient remove fault: %v", err)
	}
	requireNoTemps(t, dir)
}

func TestRemoveFaultPermanentReportedAndTracked(t *testing.T) {
	dir := t.TempDir()
	fs := New(nil, Config{Seed: 13, RemoveProb: 1, MaxFaults: 1})
	schema := testSchema(t)
	sb := data.NewSpillBufferEnv(schema, spillEnv(dir, fs))
	if err := sb.Append(makeTuples(1)[0]); err != nil {
		t.Fatal(err)
	}
	err := sb.Close()
	if !data.IsSpillError(err) {
		t.Fatalf("close: err = %v, want SpillError", err)
	}
	// The file could genuinely not be removed: the registry must still
	// know about it, so the leak is visible rather than silent.
	var live []string
	for _, p := range data.LiveTempFiles() {
		if strings.HasPrefix(p, dir+string(os.PathSeparator)) {
			live = append(live, p)
		}
	}
	if len(live) != 1 {
		t.Fatalf("live temp files = %v, want exactly the undeletable one", live)
	}
	if err := os.Remove(live[0]); err != nil {
		t.Fatal(err)
	}
	data.UnregisterTemp(live[0])
	requireNoTemps(t, dir)
}

func TestTupleBagUnderTransientFaults(t *testing.T) {
	dir := t.TempDir()
	fs := New(nil, Config{
		Seed: 17, CreateProb: 0.3, WriteProb: 0.3, RemoveProb: 0.3,
		TransientFraction: 1, MaxFaults: 2,
	})
	schema := testSchema(t)
	bag := data.NewTupleBagEnv(schema, spillEnv(dir, fs))
	tuples := makeTuples(400)
	for _, tp := range tuples {
		if err := bag.Add(tp); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	// Remove a few and check the net content.
	for _, tp := range tuples[:5] {
		if err := bag.Remove(tp); err != nil {
			t.Fatal(err)
		}
	}
	var n int
	if err := bag.ForEachChunk(func(ch *data.Chunk, idx []int32) error {
		n += len(ch.GatherRows(idx))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(tuples)-5 {
		t.Fatalf("net size %d, want %d", n, len(tuples)-5)
	}
	if err := bag.Close(); err != nil {
		t.Fatal(err)
	}
	requireNoTemps(t, dir)
}

func TestENOSPCAfterBytes(t *testing.T) {
	dir := t.TempDir()
	fs := New(nil, Config{Seed: 19, ENOSPCAfterBytes: 1 << 16})
	schema := testSchema(t)
	sb := data.NewSpillBufferEnv(schema, spillEnv(dir, fs))
	var appendErr error
	var accepted int
	for _, tp := range makeTuples(3 * (1 << 16) / data.FormatWide.TupleSize(schema)) {
		if appendErr = sb.Append(tp); appendErr != nil {
			break
		}
		accepted++
	}
	if appendErr == nil {
		t.Fatal("expected ENOSPC to poison the buffer")
	}
	if !errors.Is(sb.Err(), syscall.ENOSPC) {
		t.Fatalf("poison cause %v does not wrap ENOSPC", sb.Err())
	}
	// Everything accepted is still scannable.
	got, err := data.ReadAll(sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != accepted {
		t.Fatalf("read %d of %d accepted tuples after ENOSPC", len(got), accepted)
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	requireNoTemps(t, dir)
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (Stats, error) {
		dir := t.TempDir()
		fs := New(nil, Config{Seed: 23, WriteProb: 0.2, TransientFraction: 0.5, MaxFaults: 4})
		schema := testSchema(t)
		sb := data.NewSpillBufferEnv(schema, spillEnv(dir, fs))
		defer sb.Close()
		var firstErr error
		for _, tp := range makeTuples(3 * (1 << 16) / data.FormatWide.TupleSize(schema)) {
			if err := sb.Append(tp); err != nil {
				firstErr = err
				break
			}
		}
		return fs.Stats(), firstErr
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 || (e1 == nil) != (e2 == nil) {
		t.Fatalf("same seed, different runs: %+v/%v vs %+v/%v", s1, e1, s2, e2)
	}
}
