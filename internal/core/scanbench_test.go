package core

import (
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/split"
)

// BenchmarkCleanupScan times one cleanup-scan pass over the Fig-4/F1
// workload for each scan implementation: the row-at-a-time baseline (the
// per-tuple oracle, rowScan) and the level-synchronous columnar scan the
// build runs. The generator output is
// materialized up front so the benchmark measures the scan, not synthetic
// data generation. The skeleton is built once per mode; passes are
// separated by an exact statistic reset that runs outside the timer.
func BenchmarkCleanupScan(b *testing.B) {
	const n = 200000
	gsrc := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, n, 42)
	tuples, err := data.ReadAll(gsrc)
	if err != nil {
		b.Fatal(err)
	}
	src := data.NewMemSource(gsrc.Schema(), tuples)
	for _, mode := range []ScanMode{ScanModeRow, ScanModeChunk} {
		b.Run(string(mode), func(b *testing.B) {
			bench, err := NewScanBench(src, Config{
				Method: split.NewGini(), MaxDepth: 6, MinSplit: 50,
				SampleSize: 2000, Seed: 7, TempDir: b.TempDir(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer bench.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := bench.Reset(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				seen, err := bench.runMode(mode)
				if err != nil {
					b.Fatal(err)
				}
				if seen != n {
					b.Fatalf("saw %d tuples, want %d", seen, n)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")
		})
	}
}
