package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
)

// writeF1Files materializes one age-sorted F1 dataset in both on-disk
// formats and returns the two paths. Sorting on age — the attribute F1's
// root split tests — clusters the blocks so their zone maps actually
// decide routing, the workload zone skipping is designed for.
func writeF1Files(t *testing.T, n int64, blockRows int) (rowPath, colPath string) {
	t.Helper()
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, n, 99)
	tuples, err := data.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(tuples, func(i, j int) bool {
		return tuples[i].Values[gen.AttrAge] < tuples[j].Values[gen.AttrAge]
	})
	mem := data.NewMemSource(src.Schema(), tuples)
	dir := t.TempDir()
	rowPath, colPath = dir+"/d.boat", dir+"/d.boatc"
	if _, err := data.WriteFile(rowPath, mem, data.FormatCompact); err != nil {
		t.Fatal(err)
	}
	if _, err := data.WriteColFile(colPath, mem, blockRows); err != nil {
		t.Fatal(err)
	}
	return rowPath, colPath
}

func colTestConfig() Config {
	return Config{
		Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
		SampleSize: 1500, Seed: 11,
	}
}

// chunkOnlySource hides its ColSource's pipelined scan, so a build reads
// the file through the plain ScanChunks path with no live pipeline
// observer.
type chunkOnlySource struct{ src *data.ColSource }

func (s chunkOnlySource) Schema() *data.Schema                   { return s.src.Schema() }
func (s chunkOnlySource) Count() (int64, bool)                   { return s.src.Count() }
func (s chunkOnlySource) Scan() (data.Scanner, error)            { return s.src.Scan() }
func (s chunkOnlySource) ScanChunks() (data.ChunkScanner, error) { return s.src.ScanChunks() }

// zonelessSource hides its source's pipeline and zone maps: its chunks
// are column copies of the source's, carrying no zone summaries, so the
// routers partition every row the way they do for a row file.
type zonelessSource struct{ src data.Source }

func (s zonelessSource) Schema() *data.Schema        { return s.src.Schema() }
func (s zonelessSource) Count() (int64, bool)        { return s.src.Count() }
func (s zonelessSource) Scan() (data.Scanner, error) { return data.ScanRows(s) }
func (s zonelessSource) ScanChunks() (data.ChunkScanner, error) {
	sc, err := s.src.ScanChunks()
	if err != nil {
		return nil, err
	}
	return &zonelessScanner{inner: sc}, nil
}

type zonelessScanner struct {
	inner data.ChunkScanner
	buf   *data.Chunk
}

func (s *zonelessScanner) NextChunk(dst *data.Chunk) error {
	if s.buf == nil || s.buf.Cap() != dst.Cap()-dst.Len() {
		s.buf = data.NewChunk(dst.Width(), dst.Cap()-dst.Len())
	}
	s.buf.Reset()
	err := s.inner.NextChunk(s.buf)
	dst.AppendFrom(s.buf, 0, s.buf.Len())
	return err
}

func (s *zonelessScanner) Close() error { return s.inner.Close() }

// colReadPath opens colPath for one cell of the tree-identity grids
// below. The cell names keep the pipeline depths the grids swept while
// the depth was a build option; every scan of the file now runs the one
// pipeline at depth 4, so the depth axis picks how much of that scan the
// build sees instead:
//   - depth4: the ColSource itself — the pipelined scan, with the live
//     observer attached;
//   - depth1: the plain chunk scan (chunkOnlySource);
//   - depth-1: the chunks without their zone maps (zonelessSource), so
//     the routers partition every row.
func colReadPath(t *testing.T, colPath string, depth int) data.Source {
	t.Helper()
	colSrc, err := data.OpenColFile(colPath)
	if err != nil {
		t.Fatal(err)
	}
	switch depth {
	case 4:
		return colSrc
	case 1:
		return chunkOnlySource{colSrc}
	case -1:
		return zonelessSource{colSrc}
	}
	t.Fatalf("no read path for depth %d", depth)
	return nil
}

// TestColumnarFormatTreeIdentity is the storage-independence contract of
// the columnar path: the tree built from a columnar file — through every
// read path (colReadPath) and at every parallelism — is bit-identical to
// the tree built from the row file holding the same tuple sequence, and
// passes the consistency check.
func TestColumnarFormatTreeIdentity(t *testing.T) {
	rowPath, colPath := writeF1Files(t, 3*data.DefaultChunkRows, 1024)

	rowSrc, err := data.Open(rowPath)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := colTestConfig()
	refCfg.Parallelism = 1
	refCfg.TempDir = t.TempDir()
	ref, err := Build(rowSrc, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	for _, depth := range []int{-1, 1, 4} {
		for _, para := range []int{1, 8} {
			t.Run(fmt.Sprintf("depth%d-P%d", depth, para), func(t *testing.T) {
				cfg := colTestConfig()
				cfg.Parallelism = para
				cfg.Metrics = obs.NewRegistry()
				cfg.TempDir = t.TempDir()
				bt, err := Build(colReadPath(t, colPath, depth), cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer bt.Close()
				requireEqual(t, "columnar vs row", bt.Tree(), ref.Tree())
				if err := bt.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestBlockShardedTreeIdentity is the determinism contract of the
// cleanup scan over a columnar file cut into many small blocks: the
// single scan walks the blocks in file order whatever its parallelism,
// so the tree is bit-identical to the sequential row build AND to the
// Parallelism-8 columnar build, through the row-batch and pipelined read
// paths (colReadPath) and at every parallelism, with no reset-and-retry
// along the way.
func TestBlockShardedTreeIdentity(t *testing.T) {
	rowPath, colPath := writeF1Files(t, 3*data.DefaultChunkRows, 512)

	rowSrc, err := data.Open(rowPath)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := colTestConfig()
	refCfg.Parallelism = 1
	refCfg.TempDir = t.TempDir()
	ref, err := Build(rowSrc, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	chunkCfg := colTestConfig()
	chunkCfg.Parallelism = 8
	chunkCfg.TempDir = t.TempDir()
	chunkSrc, err := data.Open(colPath)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := Build(chunkSrc, chunkCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer chunked.Close()
	requireEqual(t, "columnar P8 vs row", chunked.Tree(), ref.Tree())

	for _, depth := range []int{-1, 4} {
		for _, para := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("depth%d-P%d", depth, para), func(t *testing.T) {
				stats := &iostats.Stats{}
				cfg := colTestConfig()
				cfg.Parallelism = para
				cfg.Stats = stats
				cfg.Metrics = obs.NewRegistry()
				cfg.TempDir = t.TempDir()
				bt, err := Build(colReadPath(t, colPath, depth), cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer bt.Close()
				requireEqual(t, "columnar vs row", bt.Tree(), ref.Tree())
				requireEqual(t, "columnar vs columnar P8", bt.Tree(), chunked.Tree())
				if err := bt.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
				if r := stats.ScanRetries(); r != 0 {
					t.Errorf("fault-free build retried its scan %d times", r)
				}
			})
		}
	}
}

// TestZoneSkipExactness: zone-map block skipping changes nothing but the
// work — the tree (and therefore every derived routing count, which
// CheckConsistency validates against the node statistics) is identical
// with skipping on and off, and on this clustered dataset the skip
// counter proves whole blocks actually bypassed the partition kernel.
func TestZoneSkipExactness(t *testing.T) {
	_, colPath := writeF1Files(t, 3*data.DefaultChunkRows, 512)

	build := func(disable bool, reg *obs.Registry) *Tree {
		t.Helper()
		src, err := data.Open(colPath)
		if err != nil {
			t.Fatal(err)
		}
		cfg := colTestConfig()
		cfg.Parallelism = 8
		cfg.TempDir = t.TempDir()
		cfg.DisableZoneSkip = disable
		cfg.Metrics = reg
		bt, err := Build(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}

	regOn := obs.NewRegistry()
	on := build(false, regOn)
	defer on.Close()
	regOff := obs.NewRegistry()
	off := build(true, regOff)
	defer off.Close()

	requireEqual(t, "zone skip on vs off", on.Tree(), off.Tree())
	if err := on.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if skips := regOn.Snapshot().Counters["scan.blocks_skipped"]; skips == 0 {
		t.Fatal("no blocks skipped on the clustered dataset; the test exercised nothing")
	}
	if skips := regOff.Snapshot().Counters["scan.blocks_skipped"]; skips != 0 {
		t.Fatalf("DisableZoneSkip build still skipped %d blocks", skips)
	}
}

// TestUpdateZoneSkipExactness: the streaming-update router's zone skip —
// which must also feed the eager interval counters for skipped numeric
// batches — leaves the tree identical to the unskipped descent, for both
// insert and delete, while actually firing on clustered update chunks.
func TestUpdateZoneSkipExactness(t *testing.T) {
	base := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 2*data.DefaultChunkRows, 31)
	_, chunkPath := writeF1Files(t, data.DefaultChunkRows, 256)

	build := func(disable bool, reg *obs.Registry) *Tree {
		t.Helper()
		cfg := colTestConfig()
		cfg.Parallelism = 8
		cfg.TempDir = t.TempDir()
		cfg.DisableZoneSkip = disable
		cfg.Metrics = reg
		// Small update batches: each covers a narrow slice of the sorted
		// age range, so block zones can decide whole batches at the root.
		cfg.ScanChunkRows = 256
		bt, err := Build(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}

	regOn := obs.NewRegistry()
	on := build(false, regOn)
	defer on.Close()
	off := build(true, obs.NewRegistry())
	defer off.Close()

	apply := func(bt *Tree, op func(data.Source) (UpdateStats, error)) {
		t.Helper()
		src, err := data.Open(chunkPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := op(src); err != nil {
			t.Fatal(err)
		}
	}
	apply(on, on.Insert)
	apply(off, off.Insert)
	requireEqual(t, "after insert", on.Tree(), off.Tree())
	if skips := regOn.Snapshot().Counters["update.blocks_skipped"]; skips == 0 {
		t.Fatal("insert skipped no blocks on the clustered chunk; the test exercised nothing")
	}

	apply(on, on.Delete)
	apply(off, off.Delete)
	requireEqual(t, "after delete", on.Tree(), off.Tree())
}

// bufferSequences flattens, in preorder, the tuple sequence of every
// stuck set and leaf family under n.
func bufferSequences(t *testing.T, n *bnode) [][]data.Tuple {
	t.Helper()
	var out [][]data.Tuple
	var walk func(*bnode)
	walk = func(n *bnode) {
		each := n.family.each
		if !n.isLeaf() {
			each = nil
			if n.pending != nil {
				each = n.pending.ForEachChunk
			}
		}
		if each != nil {
			var seq []data.Tuple
			if err := each(func(ch *data.Chunk, idx []int32) error {
				seq = append(seq, ch.GatherRows(idx)...)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			out = append(out, seq)
		}
		if !n.isLeaf() {
			walk(n.left)
			walk(n.right)
		}
	}
	walk(n)
	return out
}

// TestScanBufferOrderIndependentOfParallelism: the cleanup scan fills
// every stuck set and leaf family in stream order, so after the scan the
// buffers hold the identical tuple sequences at Parallelism 1 and 2 — a
// stronger guarantee than the equal trees BOAT's verification secures
// regardless of buffer order. The input spans several chunks, so any
// reordering of chunks between the settings would show.
func TestScanBufferOrderIndependentOfParallelism(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 4*1024+100, 19)
	scan := func(para int) [][]data.Tuple {
		cfg := colTestConfig()
		cfg.Parallelism = para
		cfg.ScanChunkRows = 1024
		cfg.TempDir = t.TempDir()
		b, err := NewScanBench(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		wk, stop := newPool(para).Start()
		defer stop()
		if _, err := b.tree.cleanupScan(b.src, b.root, nil, wk); err != nil {
			t.Fatal(err)
		}
		return bufferSequences(t, b.root)
	}
	p1, p2 := scan(1), scan(2)
	if len(p1) != len(p2) {
		t.Fatalf("skeletons differ: %d buffers at P1, %d at P2", len(p1), len(p2))
	}
	var total int
	for i := range p1 {
		if len(p1[i]) != len(p2[i]) {
			t.Fatalf("buffer %d: %d tuples at P1, %d at P2", i, len(p1[i]), len(p2[i]))
		}
		for j := range p1[i] {
			a, b := p1[i][j], p2[i][j]
			if a.Class != b.Class || !slices.Equal(a.Values, b.Values) {
				t.Fatalf("buffer %d tuple %d: %v at P1, %v at P2", i, j, a, b)
			}
		}
		total += len(p1[i])
	}
	if total != 4*1024+100 {
		t.Fatalf("buffers hold %d tuples, want every scanned tuple", total)
	}
}

// collectIntervalCounters flattens every internal node's detached
// interval statistics (lowCounts, highCounts, eqLow) in preorder — the
// counters the streaming-update router must keep exact even for batches
// the zone maps route without a per-row pass.
func collectIntervalCounters(n *bnode) []int64 {
	var out []int64
	var walk func(*bnode)
	walk = func(n *bnode) {
		if n == nil || n.isLeaf() {
			return
		}
		out = append(out, n.eqLow)
		out = append(out, n.lowCounts...)
		out = append(out, n.highCounts...)
		walk(n.left)
		walk(n.right)
	}
	walk(n)
	return out
}

// TestUpdateIntervalCountersExactUnderZoneSkip pins the eager-counting
// contract of the update router's zone skip (update.go): a numeric batch
// a zone map routes left adds to lowCounts only (a left skip implies
// every value is strictly below the interval, so never eqLow), a batch
// routed right adds to highCounts — exactly the totals the per-row pass
// produces. The comparison is on the raw node counters, not just the
// derived tree, for insert (w=+1) and delete (w=-1) alike.
func TestUpdateIntervalCountersExactUnderZoneSkip(t *testing.T) {
	base := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 2*data.DefaultChunkRows, 31)
	_, chunkPath := writeF1Files(t, data.DefaultChunkRows, 256)

	build := func(disable bool, reg *obs.Registry) *Tree {
		t.Helper()
		cfg := colTestConfig()
		cfg.Parallelism = 4
		cfg.TempDir = t.TempDir()
		cfg.DisableZoneSkip = disable
		cfg.Metrics = reg
		cfg.ScanChunkRows = 256
		bt, err := Build(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}
	regOn := obs.NewRegistry()
	on := build(false, regOn)
	defer on.Close()
	off := build(true, obs.NewRegistry())
	defer off.Close()

	compare := func(stage string) {
		t.Helper()
		a, b := collectIntervalCounters(on.root), collectIntervalCounters(off.root)
		if len(a) != len(b) {
			t.Fatalf("%s: counter vectors differ in length: %d vs %d", stage, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: interval counter %d differs: skip-on %d, skip-off %d", stage, i, a[i], b[i])
			}
		}
	}
	apply := func(bt *Tree, op func(data.Source) (UpdateStats, error)) {
		t.Helper()
		src, err := data.Open(chunkPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := op(src); err != nil {
			t.Fatal(err)
		}
	}
	compare("after build")
	apply(on, on.Insert)
	apply(off, off.Insert)
	compare("after insert")
	if skips := regOn.Snapshot().Counters["update.blocks_skipped"]; skips == 0 {
		t.Fatal("insert skipped no blocks; the eager-counting path was not exercised")
	}
	apply(on, on.Delete)
	apply(off, off.Delete)
	compare("after delete")
}
