package core

import (
	"fmt"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/split"
)

// TestChunkSizeDeterminism is the contract of Config.ScanChunkRows: the
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
				cfg.ScanChunkRows = rows
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

// TestScanModesAgree pins the two cleanup-scan implementations to each
// other on one skeleton: the row-at-a-time baseline and the columnar scan
// must see the same tuples (finishing the build after each pass would be
// expensive; here we compare the cheap observable, the tuple count, and
// rely on TestChunkSizeDeterminism for tree-level equality).
func TestScanModesAgree(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 2*data.DefaultChunkRows+123, 55)
	bench, err := NewScanBench(src, Config{
		Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
		SampleSize: 1000, Seed: 3, TempDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bench.Close()

	var want int64
	for i, mode := range []ScanMode{ScanModeRow, ScanModeChunk} {
		if err := bench.Reset(); err != nil {
			t.Fatal(err)
		}
		seen, err := bench.RunOnce(mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if i == 0 {
			want = seen
		} else if seen != want {
			t.Fatalf("%s saw %d tuples, row baseline saw %d", mode, seen, want)
		}
	}
	if want != 2*int64(data.DefaultChunkRows)+123 {
		t.Fatalf("scans saw %d tuples, want %d", want, 2*data.DefaultChunkRows+123)
	}
}
