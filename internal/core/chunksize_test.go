package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/split"
)

// TestChunkSizeDeterminism is the contract of Config.scanChunkRows: the
// built tree is bit-identical at every chunk size and every worker count,
// and matches the in-memory reference. Chunk size 1 degenerates to the
// row-at-a-time scan; 7 leaves ragged final chunks; 64 and 1024 cut the
// stream mid-node-batch in different places. All statistics are exact
// integer counts and buffers receive tuples in stream order, so none of
// that may show in the output.
func TestChunkSizeDeterminism(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 3*data.DefaultChunkRows, 107)
	base := Config{
		Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
		SampleSize: 1500, Seed: 11,
	}
	ref := buildRef(t, src, inmem.Config{
		Method: base.Method, MaxDepth: base.MaxDepth, MinSplit: base.MinSplit,
	})

	for _, rows := range []int{1, 7, 64, 1024} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("rows=%d/workers=%d", rows, workers), func(t *testing.T) {
				cfg := base
				cfg.scanChunkRows = rows
				cfg.Parallelism = workers
				cfg.TempDir = t.TempDir()
				got, err := Build(src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer got.Close()
				requireEqual(t, "chunked vs reference", got.Tree(), ref)
				if err := got.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestScanModesAgree pins the chunk router to the per-tuple oracle on one
// skeleton: a row pass (Tree.route, one descent per tuple) and a chunk
// pass must see the same tuples and leave every node in the same state —
// class, interval and AVC counts, histograms, moments, and the buffered
// tuples in order. It is the one test that checks the scan's counts
// against the oracle node by node. The F1 tuples carry NaN in some
// numeric values, which every path must count in the top histogram cell
// and route right; the chunk pass runs sequentially and with forked
// descents. QuestLike builds no coarse node over F1, so an F7 run gives
// its moments a skeleton to fill. The F4 skeleton has an internal node
// below the root, and its 16-row chunks reach that node as index batches
// that often go all one way: a router that descended such a batch whole
// would hand the child every row of the chunk, not just the batch.
func TestScanModesAgree(t *testing.T) {
	source := func(function int, nan bool) data.Source {
		gsrc := gen.MustSource(gen.Config{Function: function, Noise: 0.05}, 2*data.DefaultChunkRows+123, 55)
		tuples, err := data.ReadAll(gsrc)
		if err != nil {
			t.Fatal(err)
		}
		numeric := gsrc.Schema().NumericIndexes()
		for i := 0; nan && i < len(tuples); i += 17 {
			tuples[i].Values[numeric[(i/17)%len(numeric)]] = math.NaN()
		}
		return data.NewMemSource(gsrc.Schema(), tuples)
	}
	f1 := source(1, true)
	for _, tc := range []struct {
		name   string
		method split.Method
		src    data.Source
		rows   int // scan chunk rows; 0 takes the default
	}{
		{"gini", split.NewGini(), f1, 0},
		{"quest", split.NewQuestLike(), f1, 0},
		{"quest-F7", split.NewQuestLike(), source(7, false), 0},
		{"gini-F4", split.NewGini(), source(4, true), 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bench, err := NewScanBench(tc.src, Config{
				Method: tc.method, MaxDepth: 5, MinSplit: 50,
				SampleSize: 1000, Seed: 3, TempDir: t.TempDir(),
				scanChunkRows: tc.rows,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer bench.Close()
			if tc.rows > 0 && bench.root.left.isLeaf() && bench.root.right.isLeaf() {
				t.Fatal("the skeleton has no internal node below the root; the case exercises nothing")
			}

			var want int64
			var wantState [][]int64
			var wantIntervals []int64
			var wantBufs [][]data.Tuple
			for i, mode := range []ScanMode{ScanModeRow, ScanModeChunk, ScanModeChunk} {
				if err := bench.Reset(); err != nil {
					t.Fatal(err)
				}
				bench.tree.cfg.Parallelism = 1 + 3*(i/2) // the second chunk pass forks
				seen, err := bench.runMode(mode)
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				state, intervals := nodeStates(bench.root), collectIntervalCounters(bench.root)
				bufs := bufferSequences(t, bench.root)
				if i == 0 {
					want, wantState, wantIntervals, wantBufs = seen, state, intervals, bufs
					continue
				}
				if seen != want {
					t.Fatalf("%s saw %d tuples, row baseline saw %d", mode, seen, want)
				}
				label := fmt.Sprintf("%s pass at P%d", mode, bench.tree.cfg.Parallelism)
				requireSameNodeStates(t, label, state, wantState)
				if !slices.Equal(intervals, wantIntervals) {
					t.Fatalf("%s: interval counters %v, row oracle %v", label, intervals, wantIntervals)
				}
				requireSameBuffers(t, label, bufs, wantBufs)
			}
			if want != 2*int64(data.DefaultChunkRows)+123 {
				t.Fatalf("scans saw %d tuples, want %d", want, 2*data.DefaultChunkRows+123)
			}
		})
	}
}

// nodeStates flattens, in preorder, the class counts of every node and
// the AVC counts, histogram counts and moments of every internal node —
// the statistics the cleanup scan writes besides the interval counters
// (collectIntervalCounters) and the buffers (bufferSequences).
func nodeStates(n *bnode) [][]int64 {
	var out [][]int64
	var walk func(*bnode)
	walk = func(n *bnode) {
		st := append([]int64(nil), n.classCounts...)
		if n.isLeaf() {
			out = append(out, st)
			return
		}
		for _, cc := range n.catCounts {
			if cc != nil {
				for _, row := range cc.Counts {
					st = append(st, row...)
				}
			}
		}
		for _, h := range n.hist {
			if h != nil {
				for _, row := range h.Counts {
					st = append(st, row...)
				}
			}
		}
		if m := n.moments; m != nil {
			st = append(st, m.ClassTotals...)
			for i := range m.Num {
				if nm := m.Num[i]; nm != nil {
					st = append(st, nm.Count...)
					st = append(st, nm.Sum...)
					for c := range nm.SqHi {
						st = append(st, int64(nm.SqHi[c]), int64(nm.SqLo[c]))
					}
				} else {
					for _, row := range m.Cat[i].Counts {
						st = append(st, row...)
					}
				}
			}
		}
		out = append(out, st)
		walk(n.left)
		walk(n.right)
	}
	walk(n)
	return out
}

func requireSameNodeStates(t *testing.T, label string, got, want [][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes, oracle has %d", label, len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: node %d (preorder) state differs from the row oracle:\n got %v\nwant %v",
				label, i, got[i], want[i])
		}
	}
}

func requireSameBuffers(t *testing.T, label string, got, want [][]data.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d buffers, oracle has %d", label, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: buffer %d holds %d tuples, oracle %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			a, b := got[i][j], want[i][j]
			if a.Class != b.Class || !slices.EqualFunc(a.Values, b.Values, split.SameValue) {
				t.Fatalf("%s: buffer %d tuple %d: %v, oracle %v", label, i, j, a, b)
			}
		}
	}
}
