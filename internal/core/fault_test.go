package core

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/faultfs"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/split"
)

// noSleep keeps retry backoffs instantaneous in tests.
var noSleep = data.RetryPolicy{Sleep: func(time.Duration) {}}

// requireNoTempsUnder fails when any temp file under dir survives in the
// process-wide registry or on disk.
func requireNoTempsUnder(t *testing.T, dir string) {
	t.Helper()
	for _, p := range data.LiveTempFiles() {
		if strings.HasPrefix(p, dir+string(os.PathSeparator)) {
			t.Fatalf("live temp file remains: %s", p)
		}
	}
	matches, err := filepath.Glob(filepath.Join(dir, "boat-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp files left on disk: %v", matches)
	}
}

// TestScanRetriesOnSpillFault: a permanent create fault breaks the
// cleanup scan on its first spill; the build must reset every partial
// statistic, rerun the scan once, and still produce the exact fault-free
// tree, leaking no goroutines, temp files or budget.
func TestScanRetriesOnSpillFault(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 12000, 77)
	g := t.TempDir()
	cfg := Config{
		Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
		SampleSize: 1500, Seed: 11, Parallelism: 4, TempDir: g,
	}
	ref, err := Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	baseline := runtime.NumGoroutine()
	stats := &iostats.Stats{}
	budget := data.NewMemBudget(64) // tiny: the scan must spill immediately
	cfg.Budget = budget
	cfg.FS = faultfs.New(nil, faultfs.Config{Seed: 7, CreateProb: 1, MaxFaults: 1})
	cfg.SpillRetry = noSleep
	cfg.Stats = stats
	bt, err := Build(src, cfg)
	if err != nil {
		t.Fatalf("build did not recover from the spill fault: %v", err)
	}
	requireScanRetried(t, stats)
	requireEqual(t, "retry after spill fault", bt.Tree(), ref.Tree())
	if err := bt.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	bt.Close()
	if budget.Used() != 0 {
		t.Errorf("budget used = %d after close, want 0", budget.Used())
	}
	requireNoTempsUnder(t, g)
	waitGoroutines(t, baseline)
}

// requireScanRetried checks the I/O accounting of a build whose cleanup
// scan failed once on a storage fault: one retry, and three scans of the
// database (sampling, the failed attempt, the retry).
func requireScanRetried(t *testing.T, stats *iostats.Stats) {
	t.Helper()
	if got := stats.ScanRetries(); got != 1 {
		t.Errorf("scan retries = %d, want 1", got)
	}
	if got := stats.Scans(); got != 3 {
		t.Errorf("scans = %d, want 3 (sampling, failed attempt, retry)", got)
	}
}

// waitGoroutines polls until the goroutine count falls back to baseline,
// catching worker or pipeline goroutines leaked by a failed scan.
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

// failOpenReadFS delegates to the real filesystem but returns, for
// exactly one chosen Open (1-based across the FS's lifetime), a reader
// whose reads fail permanently after okReads successful reads — a
// deterministic mid-range media failure inside one scan pass,
// independent of bufio's read coalescing.
type failOpenReadFS struct {
	failOpen int64
	okReads  int64
	opens    atomic.Int64
}

var errDiskGone = errors.New("simulated permanent media failure")

func (f *failOpenReadFS) CreateTemp(dir, pattern string) (data.File, error) {
	return data.OsFS{}.CreateTemp(dir, pattern)
}
func (f *failOpenReadFS) Remove(name string) error { return data.OsFS{}.Remove(name) }
func (f *failOpenReadFS) Rename(oldpath, newpath string) error {
	return data.OsFS{}.Rename(oldpath, newpath)
}
func (f *failOpenReadFS) Open(name string) (io.ReadCloser, error) {
	rc, err := data.OsFS{}.Open(name)
	if err != nil {
		return nil, err
	}
	if f.opens.Add(1) != f.failOpen {
		return rc, nil
	}
	return &failAfterReader{rc: rc, left: f.okReads}, nil
}

type failAfterReader struct {
	rc   io.ReadCloser
	left int64
}

func (r *failAfterReader) Read(p []byte) (int, error) {
	if r.left <= 0 {
		return 0, errDiskGone
	}
	r.left--
	if len(p) > 1024 {
		p = p[:1024]
	}
	return r.rc.Read(p)
}
func (r *failAfterReader) Close() error { return r.rc.Close() }

// failNthWriteFS delegates to the real filesystem but fails exactly one
// spill-file Write — the failWrite-th across the FS's lifetime (0 never)
// — permanently and without consuming a byte. writes counts every Write.
type failNthWriteFS struct {
	failWrite int64
	writes    atomic.Int64
}

func (f *failNthWriteFS) CreateTemp(dir, pattern string) (data.File, error) {
	file, err := data.OsFS{}.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &failNthWriteFile{File: file, fs: f}, nil
}
func (f *failNthWriteFS) Open(name string) (io.ReadCloser, error) { return data.OsFS{}.Open(name) }
func (f *failNthWriteFS) Remove(name string) error                { return data.OsFS{}.Remove(name) }
func (f *failNthWriteFS) Rename(oldpath, newpath string) error {
	return data.OsFS{}.Rename(oldpath, newpath)
}

type failNthWriteFile struct {
	data.File
	fs *failNthWriteFS
}

func (w *failNthWriteFile) Write(p []byte) (int, error) {
	if w.fs.writes.Add(1) == w.fs.failWrite {
		return 0, errDiskGone
	}
	return w.File.Write(p)
}

// TestPushSpillFaultSweep: a spill write can fail while a node pushes its
// stuck set into its children. The recovery rebuild must then gather every
// stuck tuple exactly once — the ones already routed into a child from the
// child, the rest from the stuck set. The test fails each write of one
// sequential build in turn; every run must either return a spill error or
// build the fault-free tree over exactly |D| tuples, consistent, with no
// temp file left and the budget drained.
func TestPushSpillFaultSweep(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 12000, 77)
	base := Config{
		Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
		SampleSize: 1500, Seed: 11, Parallelism: 1, SpillRetry: noSleep,
	}
	ref, err := Build(src, base)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := ref.Tree()

	run := func(failWrite int64) (writes int64, bt *Tree, budget *data.MemBudget, dir string, err error) {
		fs := &failNthWriteFS{failWrite: failWrite}
		budget = data.NewMemBudget(32)
		dir = t.TempDir()
		cfg := base
		cfg.Budget, cfg.FS, cfg.TempDir = budget, fs, dir
		bt, err = Build(src, cfg)
		return fs.writes.Load(), bt, budget, dir, err
	}
	total, bt, _, _, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	bt.Close()
	if total < 10 {
		t.Fatalf("fault-free build issued %d spill writes; the sweep needs a spilling build", total)
	}

	var exact, failed, recovered int
	for n := int64(1); n <= total; n++ {
		_, bt, budget, dir, err := run(n)
		if err != nil {
			if !data.IsSpillError(err) {
				t.Fatalf("write %d: non-storage error %v", n, err)
			}
			failed++
		} else {
			got := bt.Tree()
			var rootTotal int64
			for _, c := range got.Root.ClassCounts {
				rootTotal += c
			}
			bs := bt.BuildStats()
			if rootTotal != bs.TuplesSeen {
				t.Errorf("write %d: root holds %d tuples, the scan saw %d (spill rebuilds %d)",
					n, rootTotal, bs.TuplesSeen, bs.SpillRebuilds)
			}
			if cerr := bt.CheckConsistency(); cerr != nil {
				t.Errorf("write %d: %v", n, cerr)
			}
			if !got.Equal(want) {
				t.Errorf("write %d: tree differs from the fault-free build (spill rebuilds %d): %s",
					n, bs.SpillRebuilds, got.Diff(want))
			}
			if bs.SpillRebuilds > 0 {
				recovered++
			}
			bt.Close()
			exact++
		}
		if budget.Used() != 0 {
			t.Errorf("write %d: budget used = %d after build", n, budget.Used())
		}
		requireNoTempsUnder(t, dir)
	}
	t.Logf("%d writes swept: %d builds returned a tree (%d via a spill rebuild), %d clean errors",
		total, exact, recovered, failed)
	if recovered == 0 {
		t.Error("no swept fault reached the stuck-set push recovery")
	}
}

// TestUpdateSpillFaultSweep is TestPushSpillFaultSweep for an update: an
// insert whose chunk leaves many stuck tuples and moves split points, so
// that swept faults land in the routing of the chunk, in the migrations,
// in the pushes and in the recording of the pushed sets. Every write of
// the insert fails in turn, on a fresh build; the insert must then either
// leave the fault-free tree — consistent, over exactly |D| + |chunk|
// tuples — or fail with a spill error that breaks the model. Some exact
// outcomes must come from a recovery rebuild, and every run must leave
// the budget drained and no temp file behind once the tree is closed.
func TestUpdateSpillFaultSweep(t *testing.T) {
	base := gen.MustSource(gen.Config{Function: 2, Noise: 0.05}, 12000, 77)
	ins := gen.MustSource(gen.Config{Function: 2, Noise: 0.05}, 20000, 79)
	cfg := Config{
		Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
		SampleSize: 1500, Seed: 11, Parallelism: 1, SpillRetry: noSleep,
	}
	type outcome struct {
		buildWrites, writes int64
		upd                 UpdateStats
		err                 error
		bt                  *Tree
		budget              *data.MemBudget
		dir                 string
	}
	run := func(failWrite int64) outcome {
		fs := &failNthWriteFS{failWrite: failWrite}
		o := outcome{budget: data.NewMemBudget(32), dir: t.TempDir()}
		c := cfg
		c.Budget, c.FS, c.TempDir = o.budget, fs, o.dir
		var err error
		if o.bt, err = Build(base, c); err != nil {
			t.Fatalf("build: %v", err)
		}
		o.buildWrites = fs.writes.Load()
		o.upd, o.err = o.bt.Insert(ins)
		o.writes = fs.writes.Load() - o.buildWrites
		return o
	}
	clean := run(0)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	want := clean.bt.Tree()
	clean.bt.Close()
	if clean.writes < 10 || clean.upd.MigratedTuples == 0 || clean.upd.RebuiltSubtrees != 0 {
		t.Fatalf("fault-free insert: %d spill writes, %+v; the sweep needs a spilling, migrating insert without rebuilds",
			clean.writes, clean.upd)
	}
	tuples, err := data.ReadAll(base)
	if err != nil {
		t.Fatal(err)
	}
	more, err := data.ReadAll(ins)
	if err != nil {
		t.Fatal(err)
	}
	requireEqual(t, "fault-free insert", want, inmem.Build(base.Schema(), append(tuples, more...),
		inmem.Config{Method: cfg.Method, MaxDepth: cfg.MaxDepth, MinSplit: cfg.MinSplit}))

	var exact, broken, recovered int
	for k := int64(1); k <= clean.writes; k++ {
		o := run(clean.buildWrites + k)
		if o.err != nil {
			if !data.IsSpillError(o.err) || !errors.Is(o.err, ErrBrokenModel) {
				t.Fatalf("write %d: got %v, want a spill error that breaks the model", k, o.err)
			}
			broken++
		} else {
			got := o.bt.Tree()
			var rootTotal int64
			for _, c := range got.Root.ClassCounts {
				rootTotal += c
			}
			if rootTotal != 32000 {
				t.Errorf("write %d: root holds %d tuples, want 32000", k, rootTotal)
			}
			if cerr := o.bt.CheckConsistency(); cerr != nil {
				t.Errorf("write %d: %v", k, cerr)
			}
			if !got.Equal(want) {
				t.Errorf("write %d: tree differs from the fault-free insert (rebuilt %d): %s",
					k, o.upd.RebuiltSubtrees, got.Diff(want))
			}
			if o.upd.RebuiltSubtrees > 0 {
				recovered++
			}
			exact++
		}
		o.bt.Close()
		if o.budget.Used() != 0 {
			t.Errorf("write %d: budget used = %d after close", k, o.budget.Used())
		}
		requireNoTempsUnder(t, o.dir)
	}
	t.Logf("%d insert writes swept: %d exact (%d via a recovery rebuild), %d broken",
		clean.writes, exact, recovered, broken)
	if recovered == 0 {
		t.Error("no swept fault reached a push or migration recovery")
	}
}

// colFaultConfig is the shared configuration of the columnar read-fault
// tests: pipelined reads, more than one worker.
func colFaultConfig(stats *iostats.Stats, dir string) Config {
	return Config{
		Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
		SampleSize: 1500, Seed: 11, Parallelism: 4,
		Stats: stats, TempDir: dir,
	}
}

// writeColFaultFile materializes a columnar file of many small blocks.
func writeColFaultFile(t *testing.T, n int64) string {
	t.Helper()
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, n, 77)
	path := filepath.Join(t.TempDir(), "d.boatc")
	if _, err := data.WriteColFile(path, src, 512); err != nil {
		t.Fatal(err)
	}
	return path
}

// buildColRef builds the fault-free reference tree over a columnar file.
func buildColRef(t *testing.T, path string) *Tree {
	t.Helper()
	src, err := data.OpenColFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(src, colFaultConfig(nil, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestScanRetriesOnReadFault: a permanent read failure midway through the
// cleanup scan's pass over a columnar file kills the scan; the build must
// reset every partial statistic, rerun the scan once, produce the exact
// fault-free tree, leak no pipeline goroutines, and release its budget.
func TestScanRetriesOnReadFault(t *testing.T) {
	path := writeColFaultFile(t, 12000)
	ref := buildColRef(t, path)
	defer ref.Close()

	baseline := runtime.NumGoroutine()
	// Open #1 is the sampling pass, open #2 the cleanup scan: fail that
	// one mid-file. Open #3, the retry, reads cleanly.
	fs := &failOpenReadFS{failOpen: 2, okReads: 2}
	src, err := data.OpenColFile(path, data.ColOptions{FS: fs, Retry: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	stats := &iostats.Stats{}
	budget := data.NewMemBudget(1 << 20)
	cfg := colFaultConfig(stats, t.TempDir())
	cfg.Budget = budget
	bt, err := Build(src, cfg)
	if err != nil {
		t.Fatalf("build did not recover from the read fault: %v", err)
	}
	requireScanRetried(t, stats)
	requireEqual(t, "retry after read fault", bt.Tree(), ref.Tree())
	if err := bt.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	bt.Close()
	if budget.Used() != 0 {
		t.Errorf("budget used = %d after close, want 0", budget.Used())
	}
	requireNoTempsUnder(t, cfg.TempDir)
	waitGoroutines(t, baseline)
}

// TestScanTransientReadRetried: transient read faults during the scan of
// a columnar file are absorbed by the blockReader's retry policy — no
// scan retry, no goroutine leaks, and the exact fault-free tree.
func TestScanTransientReadRetried(t *testing.T) {
	path := writeColFaultFile(t, 12000)
	ref := buildColRef(t, path)
	defer ref.Close()

	baseline := runtime.NumGoroutine()
	fs := faultfs.New(nil, faultfs.Config{
		Seed: 9, ReadProb: 1, TransientFraction: 1, MaxFaults: 6,
	})
	retry := data.RetryPolicy{Attempts: 8, Sleep: func(time.Duration) {}}
	src, err := data.OpenColFile(path, data.ColOptions{FS: fs, Retry: retry})
	if err != nil {
		t.Fatal(err)
	}
	stats := &iostats.Stats{}
	bt, err := Build(src, colFaultConfig(stats, t.TempDir()))
	if err != nil {
		t.Fatalf("build failed under transient read faults: %v", err)
	}
	defer bt.Close()
	if got := stats.ScanRetries(); got != 0 {
		t.Errorf("scan retries = %d, want 0 (transient faults retry in place)", got)
	}
	if st := fs.Stats(); st.Faults == 0 {
		t.Fatal("injection never fired; the test exercised nothing")
	}
	requireEqual(t, "transient faults retried", bt.Tree(), ref.Tree())
	waitGoroutines(t, baseline)
}

// TestBuildUnderMixedFaults is the in-process version of the boatbench
// fault soak: across many fault seeds, a build with injected storage
// faults must either produce a tree identical to the fault-free build or
// fail with a clean error — and in both cases release its whole memory
// budget and leave zero temp files.
func TestBuildUnderMixedFaults(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 6, Noise: 0.05}, 9000, 5)
	base := Config{
		Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
		SampleSize: 1500, Seed: 23, Parallelism: 2,
	}
	ref, err := Build(src, base)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := ref.Tree()

	var clean, failed int
	for seed := range int64(12) {
		dir := t.TempDir()
		// RemoveProb stays 0: a permanent remove fault makes the temp file
		// undeletable by definition, so "zero files left" cannot hold; that
		// path is covered by the faultfs registry tests instead.
		fs := faultfs.New(nil, faultfs.Config{
			Seed:              seed,
			CreateProb:        0.08,
			WriteProb:         0.08,
			OpenProb:          0.03,
			TransientFraction: 0.6,
			MaxFaults:         6,
		})
		stats := &iostats.Stats{}
		budget := data.NewMemBudget(128)
		cfg := base
		cfg.Budget = budget
		cfg.TempDir = dir
		cfg.FS = fs
		cfg.SpillRetry = noSleep
		cfg.Stats = stats
		bt, err := Build(src, cfg)
		if err == nil {
			requireEqual(t, "faulted build", bt.Tree(), want)
			if cerr := bt.CheckConsistency(); cerr != nil {
				t.Fatalf("seed %d: %v", seed, cerr)
			}
			bt.Close()
			clean++
		} else {
			if !data.IsSpillError(err) {
				t.Fatalf("seed %d: non-storage error %v", seed, err)
			}
			failed++
		}
		if budget.Used() != 0 {
			t.Fatalf("seed %d: budget used = %d after build", seed, budget.Used())
		}
		requireNoTempsUnder(t, dir)
	}
	t.Logf("mixed-fault builds: %d exact, %d clean errors", clean, failed)
	if clean == 0 {
		t.Error("no faulted build recovered; fault mix too aggressive to test recovery")
	}
}

// TestSaveFileRenameFaultLeavesNothing: a permanent rename fault must
// leave neither a model at path nor a stray temp file.
func TestSaveFileRenameFaultLeavesNothing(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1}, 2000, 3)
	fs := faultfs.New(nil, faultfs.Config{Seed: 1, RenameProb: 1, MaxFaults: 1})
	dir := t.TempDir()
	bt, err := Build(src, Config{
		Method: split.NewGini(), MaxDepth: 4, MinSplit: 20,
		SampleSize: 500, Seed: 9, TempDir: dir, FS: fs, SpillRetry: noSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	path := filepath.Join(dir, "model.boat")
	if err := bt.SaveFile(path); err == nil {
		t.Fatal("SaveFile succeeded despite permanent rename fault")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("model path exists after failed save (err=%v)", err)
	}
	requireNoTempsUnder(t, dir)
}

// TestSaveFileTransientRenameRetried: a transient rename fault is
// retried; the saved model must load back identical.
func TestSaveFileTransientRenameRetried(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1}, 2000, 3)
	fs := faultfs.New(nil, faultfs.Config{Seed: 2, RenameProb: 1, TransientFraction: 1, MaxFaults: 1})
	dir := t.TempDir()
	cfg := Config{
		Method: split.NewGini(), MaxDepth: 4, MinSplit: 20,
		SampleSize: 500, Seed: 9, TempDir: dir, FS: fs, SpillRetry: noSleep,
	}
	bt, err := Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	path := filepath.Join(dir, "model.boat")
	if err := bt.SaveFile(path); err != nil {
		t.Fatalf("SaveFile with transient rename fault: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := Load(f, src.Schema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	requireEqual(t, "save/load", loaded.Tree(), bt.Tree())
	requireNoTempsUnder(t, dir)
}

// TestLoadFailureReleasesBuffers: a truncated model stream must not leak
// the bags decoded before the error.
func TestLoadFailureReleasesBuffers(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.1}, 4000, 3)
	dir := t.TempDir()
	budget := data.NewMemBudget(32) // force the decoded bags to spill
	cfg := Config{
		Method: split.NewGini(), MaxDepth: 5, MinSplit: 20,
		SampleSize: 800, Seed: 9, TempDir: dir,
	}
	bt, err := Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	var buf strings.Builder
	if err := bt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	lcfg := cfg
	lcfg.Budget = budget
	for _, cut := range []int{len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		if _, err := Load(strings.NewReader(raw[:cut]), src.Schema(), lcfg); err == nil {
			t.Fatalf("loading %d/%d bytes succeeded", cut, len(raw))
		}
		if budget.Used() != 0 {
			t.Fatalf("cut %d: budget used = %d after failed load", cut, budget.Used())
		}
		requireNoTempsUnder(t, dir)
	}
}
