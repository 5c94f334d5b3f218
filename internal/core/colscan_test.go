package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
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
// root split tests — sends whole chunks down one side of the root, so the
// router's whole-chunk descents fire.
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

// copySource hides its source's pipeline: its chunks are column copies of
// the source's, read through a buffer cut to the destination's free rows.
type copySource struct{ src data.Source }

func (s copySource) Schema() *data.Schema        { return s.src.Schema() }
func (s copySource) Count() (int64, bool)        { return s.src.Count() }
func (s copySource) Scan() (data.Scanner, error) { return data.ScanRows(s) }
func (s copySource) ScanChunks() (data.ChunkScanner, error) {
	sc, err := s.src.ScanChunks()
	if err != nil {
		return nil, err
	}
	return &copyScanner{inner: sc}, nil
}

type copyScanner struct {
	inner data.ChunkScanner
	buf   *data.Chunk
}

func (s *copyScanner) NextChunk(dst *data.Chunk) error {
	if s.buf == nil || s.buf.Cap() != dst.Cap()-dst.Len() {
		s.buf = data.NewChunk(dst.Width(), dst.Cap()-dst.Len())
	}
	s.buf.Reset()
	err := s.inner.NextChunk(s.buf)
	dst.AppendFrom(s.buf, 0, s.buf.Len())
	return err
}

func (s *copyScanner) Close() error { return s.inner.Close() }

// colReadPath opens colPath for one cell of the tree-identity grids
// below. The cell names keep the pipeline depths the grids swept while
// the depth was a build option; every scan of the file now runs the one
// pipeline at depth 4, so the depth axis picks how much of that scan the
// build sees instead:
//   - depth4: the ColSource itself — the pipelined scan, with the live
//     observer attached;
//   - depth1: the plain chunk scan (chunkOnlySource);
//   - depth-1: column copies of the plain chunk scan's chunks
//     (copySource).
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
		return copySource{colSrc}
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

// sortedF1Sources returns the three sources the oracle tests below read
// one age-sorted F1 dataset (writeF1Files) from: the row file, an
// in-memory source and the columnar file of blockRows-row blocks.
func sortedF1Sources(t *testing.T, n int64, blockRows int) []namedSource {
	t.Helper()
	rowPath, colPath := writeF1Files(t, n, blockRows)
	rowSrc, err := data.Open(rowPath)
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := data.ReadAll(rowSrc)
	if err != nil {
		t.Fatal(err)
	}
	colSrc, err := data.Open(colPath)
	if err != nil {
		t.Fatal(err)
	}
	return []namedSource{
		{"row", rowSrc},
		{"mem", data.NewMemSource(rowSrc.Schema(), tuples)},
		{"col", colSrc},
	}
}

type namedSource struct {
	name string
	src  data.Source
}

// TestZoneSkipExactness pins the cleanup scan's whole-chunk descents to
// the per-tuple oracle: on age-sorted F1 read from a row file, an
// in-memory source and a columnar file, a row pass (Tree.route) and chunk
// passes at P1 and P4 leave every node in the same state — class, AVC and
// interval counts (lowCounts, highCounts, eqLow), histograms and the
// buffered tuples in order — and the chunk passes descend whole chunks
// (scan.blocks_skipped > 0) whatever the source. Chunks of 1,024 rows
// each cover a narrow slice of the sorted ages, so whole chunks descend
// both sides of the root. The build's tree equals the in-memory
// reference. (This test and the two update tests below keep the names of
// the zone-map block skipping the whole-chunk rule replaced.)
func TestZoneSkipExactness(t *testing.T) {
	const n = 3 * data.DefaultChunkRows
	for _, s := range sortedF1Sources(t, n, 512) {
		t.Run(s.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := colTestConfig()
			cfg.Metrics = reg
			cfg.TempDir = t.TempDir()
			cfg.scanChunkRows = 1024
			bench, err := NewScanBench(s.src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer bench.Close()
			var wantState [][]int64
			var wantIntervals []int64
			var wantBufs [][]data.Tuple
			for i, mode := range []ScanMode{ScanModeRow, ScanModeChunk, ScanModeChunk} {
				if err := bench.Reset(); err != nil {
					t.Fatal(err)
				}
				bench.tree.cfg.Parallelism = 1 + 3*(i/2)
				if seen, err := bench.runMode(mode); err != nil || seen != n {
					t.Fatalf("%s pass: saw %d tuples (%v), want %d", mode, seen, err, n)
				}
				state, intervals := nodeStates(bench.root), collectIntervalCounters(bench.root)
				bufs := bufferSequences(t, bench.root)
				if i == 0 {
					wantState, wantIntervals, wantBufs = state, intervals, bufs
					continue
				}
				label := fmt.Sprintf("chunk pass at P%d", bench.tree.cfg.Parallelism)
				requireSameNodeStates(t, label, state, wantState)
				if !slices.Equal(intervals, wantIntervals) {
					t.Fatalf("%s: interval counters %v, row oracle %v", label, intervals, wantIntervals)
				}
				requireSameBuffers(t, label, bufs, wantBufs)
			}
			if skips := reg.Snapshot().Counters["scan.blocks_skipped"]; skips == 0 {
				t.Fatal("no chunk descended whole on the sorted dataset; the test exercised nothing")
			}

			bcfg := colTestConfig()
			bcfg.TempDir = t.TempDir()
			bt, err := Build(s.src, bcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer bt.Close()
			requireEqual(t, "build vs reference", bt.Tree(), buildRef(t, s.src, bcfg.growConfig(0)))
			if err := bt.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// misstateColMax overwrites, in every block of the columnar file at
// path, column attr's header max with max and recomputes the block's
// CRC-32C, so the file stays checksum-valid while its headers misstate
// the column's range. Layout: see internal/data/colfile.go.
func misstateColMax(t *testing.T, path string, attr int, max float64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	foot := raw[len(raw)-32:]
	blocks, indexLen := le.Uint64(foot[8:]), le.Uint64(foot[16:])
	index := raw[uint64(len(raw))-32-indexLen:]
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for b := uint64(0); b < blocks; b++ {
		off := le.Uint64(index[8*b:])
		body := raw[off+4 : off+4+uint64(le.Uint32(raw[off:]))]
		col := 4 // past rowCount
		for a := 0; a < attr; a++ {
			col += 30 + int(le.Uint32(body[col+26:])) // header + segment
		}
		le.PutUint64(body[col+10:], math.Float64bits(max))
		le.PutUint32(raw[off+4+uint64(len(body)):], crc32.Checksum(body, castagnoli))
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestUntrustedColumnHeaders: routing reads the rows, never a block
// header's zone fields. A checksum-valid columnar file whose headers
// claim every age is at most 25 builds with no failed verification and
// the stuck sets and tree of the row file holding the same tuples.
func TestUntrustedColumnHeaders(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 40000, 5)
	dir := t.TempDir()
	rowPath, colPath := dir+"/d.boat", dir+"/d.boatc"
	if _, err := data.WriteFile(rowPath, src, data.FormatCompact); err != nil {
		t.Fatal(err)
	}
	if _, err := data.WriteColFile(colPath, src, 1024); err != nil {
		t.Fatal(err)
	}
	misstateColMax(t, colPath, gen.AttrAge, 25)

	build := func(path string) *Tree {
		t.Helper()
		s, err := data.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg := colTestConfig()
		cfg.TempDir = t.TempDir()
		bt, err := Build(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}
	row := build(rowPath)
	defer row.Close()
	col := build(colPath)
	defer col.Close()
	rs, cs := row.BuildStats(), col.BuildStats()
	if cs.FailedNodes != 0 {
		t.Fatalf("columnar build failed %d verifications (%+v)", cs.FailedNodes, cs)
	}
	if cs.StuckTuples != rs.StuckTuples {
		t.Fatalf("columnar build stuck %d tuples, row build %d", cs.StuckTuples, rs.StuckTuples)
	}
	requireEqual(t, "misstated headers vs row file", col.Tree(), row.Tree())
}

// updateOracle builds two identical trees over unsorted F1, then for
// each of the age-sorted update sources (sortedF1Sources) inserts and
// deletes it with the chunk router on one tree (Insert, Delete) and with
// the per-tuple oracle on the other (rowUpdate), calling check after the
// build and after every update. Update chunks of 256 rows each cover a
// narrow slice of the sorted ages, so whole chunks descend one side of
// the root; updateOracle fails unless they did for every source
// (update.blocks_skipped > 0).
func updateOracle(t *testing.T, para int, check func(stage string, chunked, row *Tree)) {
	t.Helper()
	base := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 2*data.DefaultChunkRows, 31)
	build := func(reg *obs.Registry) *Tree {
		t.Helper()
		cfg := colTestConfig()
		cfg.Parallelism = para
		cfg.TempDir = t.TempDir()
		cfg.Metrics = reg
		cfg.scanChunkRows = 256
		bt, err := Build(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}
	reg := obs.NewRegistry()
	chunked := build(reg)
	defer chunked.Close()
	row := build(nil)
	defer row.Close()
	check("after build", chunked, row)

	for _, s := range sortedF1Sources(t, data.DefaultChunkRows, 256) {
		before := reg.Snapshot().Counters["update.blocks_skipped"]
		for _, op := range []struct {
			name    string
			chunked func(data.Source) (UpdateStats, error)
			w       int64
		}{{"insert", chunked.Insert, +1}, {"delete", chunked.Delete, -1}} {
			if _, err := op.chunked(s.src); err != nil {
				t.Fatalf("%s %s: %v", s.name, op.name, err)
			}
			if _, err := row.rowUpdate(s.src, op.w); err != nil {
				t.Fatalf("%s oracle %s: %v", s.name, op.name, err)
			}
			check(fmt.Sprintf("after %s %s", s.name, op.name), chunked, row)
		}
		if reg.Snapshot().Counters["update.blocks_skipped"] == before {
			t.Fatalf("%s: no update chunk descended whole; the test exercised nothing", s.name)
		}
	}
}

// TestUpdateZoneSkipExactness: the streaming-update router, whole-chunk
// descents included, leaves the tree the per-tuple oracle leaves after
// every insert and delete of age-sorted chunks from a row file, an
// in-memory source and a columnar file, and the tree stays consistent.
func TestUpdateZoneSkipExactness(t *testing.T) {
	updateOracle(t, 8, func(stage string, chunked, row *Tree) {
		t.Helper()
		requireEqual(t, stage, chunked.Tree(), row.Tree())
		if err := chunked.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	})
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
		cfg.scanChunkRows = 1024
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
// counters the chunk router must keep equal to the per-tuple oracle's
// even for chunks that descend whole.
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

// TestUpdateIntervalCountersExactUnderZoneSkip pins the update router's
// node counters to the per-tuple oracle's: a chunk that descends whole
// past a node still adds each row to lowCounts (and eqLow at the
// endpoint) or highCounts exactly as Tree.route does, and to the class,
// AVC and histogram counts of the child it descends. The comparison is
// on the raw node counters, not just the derived tree, after the build
// and after each insert (w=+1) and delete (w=-1) of age-sorted chunks,
// with forked descents (Parallelism 4).
func TestUpdateIntervalCountersExactUnderZoneSkip(t *testing.T) {
	updateOracle(t, 4, func(stage string, chunked, row *Tree) {
		t.Helper()
		a, b := collectIntervalCounters(chunked.root), collectIntervalCounters(row.root)
		if !slices.Equal(a, b) {
			t.Fatalf("%s: interval counters %v, row oracle %v", stage, a, b)
		}
		requireSameNodeStates(t, stage, nodeStates(chunked.root), nodeStates(row.root))
	})
}

// TestPushDescendsWholeChunks: a push of a stuck set takes the router's
// whole-chunk rule. After a cleanup scan of age-sorted F1, the root's
// stuck set S_n holds its in-interval tuples in age order, so when it is
// pushed by a split point inside the interval, every pending chunk but
// the one that straddles the split point goes one way and must descend
// whole (the push router's skip count). The children must end in the
// state the per-tuple oracle leaves when it routes each stuck tuple into
// its side: class, AVC and interval counts, histograms and buffers.
func TestPushDescendsWholeChunks(t *testing.T) {
	const n = 10 * data.DefaultChunkRows
	src := sortedF1Sources(t, n, 512)[1].src // the in-memory source
	var states [2][][]int64
	var intervals [2][]int64
	var bufs [2][][]data.Tuple
	for i, oracle := range []bool{false, true} {
		cfg := colTestConfig()
		cfg.TempDir = t.TempDir()
		bench, err := NewScanBench(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer bench.Close()
		if _, err := bench.RunOnce(); err != nil {
			t.Fatal(err)
		}
		root := bench.root
		if root.isLeaf() || root.coarse.kind != data.Numeric || root.pending.Len() == 0 {
			t.Fatal("the root kept no stuck set to push")
		}
		c := root.coarse
		thr := c.lo + (c.hi-c.lo)/2
		if !oracle {
			var chunks, oneWay int64
			if err := root.pending.ForEachChunk(func(ch *data.Chunk, idx []int32) error {
				left := len(intervalRows(nil, ch.Col(c.attr), idx, math.Inf(-1), thr, true))
				chunks++
				if left == 0 || left == ch.Len() {
					oneWay++
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if oneWay == 0 || oneWay == chunks {
				t.Fatalf("%d of %d pending chunks go one way; the push exercises one path only", oneWay, chunks)
			}
			r := bench.tree.newChunkRouter(+1)
			if err := bench.tree.push(r, root, thr, nil); err != nil {
				t.Fatal(err)
			}
			if got := r.skips.Load(); got != oneWay {
				t.Fatalf("the push descended %d chunks whole, want the %d of %d that go one way",
					got, oneWay, chunks)
			}
			t.Logf("%d of %d pending chunks descended whole", oneWay, chunks)
		} else if err := root.pending.ForEachChunk(func(ch *data.Chunk, idx []int32) error {
			for _, tp := range ch.GatherRows(idx) {
				child := root.right
				if tp.Values[c.attr] <= thr {
					child = root.left
				}
				if err := bench.tree.route(child, tp, +1); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		states[i], intervals[i] = nodeStates(root), collectIntervalCounters(root)
		bufs[i] = bufferSequences(t, root)
	}
	requireSameNodeStates(t, "chunk push", states[0], states[1])
	if !slices.Equal(intervals[0], intervals[1]) {
		t.Fatalf("chunk push: interval counters %v, row oracle %v", intervals[0], intervals[1])
	}
	requireSameBuffers(t, "chunk push", bufs[0], bufs[1])
}
