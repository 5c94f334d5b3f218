// Benchmark harness: one testing.B benchmark per figure of the paper's
// evaluation (Section 5), plus ablation benches for BOAT's design knobs.
//
// Each figure benchmark executes the corresponding experiment sweep
// (generating the workload, running BOAT and the RainForest baselines,
// verifying that all algorithms produce the identical tree) and reports,
// beyond ns/op:
//
//	boat-s/op, rf-hybrid-s/op, rf-vertical-s/op  summed wall-clock per sweep
//	boat-scans, rf-hybrid-scans, rf-vert-scans   summed database scans
//	speedup-vs-hybrid                            rf-hybrid time / boat time
//
// The sweeps default to a heavily scaled-down configuration so the whole
// suite runs in minutes; set BOAT_BENCH_UNIT (tuples per paper-"million",
// default 10000) and BOAT_BENCH_MAXUNITS (default 6) to rescale, with
// BOAT_BENCH_UNIT=1000000 BOAT_BENCH_MAXUNITS=10 reproducing the paper's
// full 2M-10M setup.
package boat_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"github.com/boatml/boat"
	"github.com/boatml/boat/internal/core"
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/experiments"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/rainforest"
	"github.com/boatml/boat/internal/split"
)

func envInt(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func benchConfig(b *testing.B) experiments.Config {
	b.Helper()
	return experiments.Config{
		Unit:     envInt("BOAT_BENCH_UNIT", 10_000),
		MaxUnits: int(envInt("BOAT_BENCH_MAXUNITS", 6)),
		Seed:     1,
		Dir:      b.TempDir(),
		UseFiles: os.Getenv("BOAT_BENCH_FILES") != "",
	}
}

// reportComparison aggregates a sweep's rows into per-algorithm metrics.
func reportComparison(b *testing.B, rows []experiments.Row) {
	b.Helper()
	secs := map[string]float64{}
	scans := map[string]float64{}
	for _, r := range rows {
		secs[r.Algo] += r.Seconds
		scans[r.Algo] += float64(r.Scans)
	}
	if s := secs["BOAT"]; s > 0 {
		b.ReportMetric(s/float64(b.N), "boat-s/op")
		if h := secs["RF-Hybrid"]; h > 0 {
			b.ReportMetric(h/s, "speedup-vs-hybrid")
		}
	}
	if s := secs["RF-Hybrid"]; s > 0 {
		b.ReportMetric(s/float64(b.N), "rf-hybrid-s/op")
	}
	if s := secs["RF-Vertical"]; s > 0 {
		b.ReportMetric(s/float64(b.N), "rf-vertical-s/op")
	}
	for algo, label := range map[string]string{
		"BOAT": "boat-scans", "RF-Hybrid": "rf-hybrid-scans", "RF-Vertical": "rf-vert-scans",
	} {
		if v, ok := scans[algo]; ok {
			b.ReportMetric(v/float64(b.N), label)
		}
	}
}

func benchFigure(b *testing.B, run func(experiments.Config) ([]experiments.Row, error)) {
	c := benchConfig(b)
	var all []experiments.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := run(c)
		if err != nil {
			b.Fatal(err)
		}
		all = append(all, rows...)
	}
	b.StopTimer()
	reportComparison(b, all)
}

// --- Figures 4-6: overall construction time versus database size -----------

func BenchmarkFig4OverallF1(b *testing.B) {
	benchFigure(b, func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunScalability("fig4", 1, c)
	})
}

func BenchmarkFig5OverallF6(b *testing.B) {
	benchFigure(b, func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunScalability("fig5", 6, c)
	})
}

func BenchmarkFig6OverallF7(b *testing.B) {
	benchFigure(b, func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunScalability("fig6", 7, c)
	})
}

// --- Figures 7-9: noise sensitivity ----------------------------------------

func BenchmarkFig7NoiseF1(b *testing.B) {
	benchFigure(b, func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunNoise("fig7", 1, c)
	})
}

func BenchmarkFig8NoiseF6(b *testing.B) {
	benchFigure(b, func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunNoise("fig8", 6, c)
	})
}

func BenchmarkFig9NoiseF7(b *testing.B) {
	benchFigure(b, func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunNoise("fig9", 7, c)
	})
}

// --- Figures 10-11: extra non-predictive attributes ------------------------

func BenchmarkFig10ExtraAttrsF1(b *testing.B) {
	benchFigure(b, func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunExtraAttrs("fig10", 1, c)
	})
}

func BenchmarkFig11ExtraAttrsF6(b *testing.B) {
	benchFigure(b, func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunExtraAttrs("fig11", 6, c)
	})
}

// --- Figure 12: split-selection instability --------------------------------

func BenchmarkFig12Instability(b *testing.B) {
	c := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunInstability(c)
		if err != nil {
			b.Fatal(err)
		}
		if !res.BOATExact {
			b.Fatal("exactness lost on the instability dataset")
		}
		b.ReportMetric(float64(res.NearLow), "points-near-19")
		b.ReportMetric(float64(res.NearHigh), "points-near-60")
		b.ReportMetric(float64(res.CoarseNodes), "coarse-nodes")
		b.ReportMetric(float64(res.Failures), "verification-failures")
	}
}

// --- Figures 13-15: dynamic environments -----------------------------------

func benchDynamic(b *testing.B, fig string, kind experiments.DynamicKind) {
	c := benchConfig(b)
	var update, rebuild float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunDynamic(fig, kind, c)
		if err != nil {
			b.Fatal(err)
		}
		// Final cumulative values per curve.
		finals := map[string]float64{}
		for _, r := range rows {
			finals[r.Algo] = r.Seconds
		}
		update += finals["BOAT-Update"] + finals["Chunk-1"]
		rebuild += finals["Rebuild-RF-Hybrid"] + finals["Chunk-2"]
	}
	b.StopTimer()
	b.ReportMetric(update/float64(b.N), "update-cum-s/op")
	b.ReportMetric(rebuild/float64(b.N), "compare-cum-s/op")
	if update > 0 && kind != experiments.DynamicChunkSize {
		b.ReportMetric(rebuild/update, "rebuild-over-update")
	}
}

func BenchmarkFig13DynamicStable(b *testing.B) {
	benchDynamic(b, "fig13", experiments.DynamicStable)
}

func BenchmarkFig14DynamicChange(b *testing.B) {
	benchDynamic(b, "fig14", experiments.DynamicChange)
}

func BenchmarkFig15DynamicSmall(b *testing.B) {
	benchDynamic(b, "fig15", experiments.DynamicChunkSize)
}

// --- Exactness and the non-impurity method (Section 5 remarks) -------------

// BenchmarkExactness measures a single BOAT build including its exactness
// check against the in-memory reference (the §3/§7 guarantee).
func BenchmarkExactness(b *testing.B) {
	unit := envInt("BOAT_BENCH_UNIT", 10_000)
	src := gen.MustSource(gen.Config{Function: 6, Noise: 0.05}, 4*unit, 3)
	tuples, err := data.ReadAll(src)
	if err != nil {
		b.Fatal(err)
	}
	g := inmem.Config{Method: split.NewGini(), MaxDepth: 6, MinSplit: 50}
	ref := inmem.Build(src.Schema(), tuples, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt, err := core.Build(src, core.Config{
			Method: split.NewGini(), MaxDepth: 6, MinSplit: 50,
			SampleSize: int(unit), Seed: int64(i), TempDir: b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !bt.Tree().Equal(ref) {
			b.Fatal("tree differs from reference")
		}
		bt.Close()
	}
}

// BenchmarkNonImpurity runs the BOAT-with-QUEST instantiation the paper
// reports alongside the impurity-based methods.
func BenchmarkNonImpurity(b *testing.B) {
	unit := envInt("BOAT_BENCH_UNIT", 10_000)
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 5*unit, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st iostats.Stats
		bt, err := core.Build(src, core.Config{
			Method: split.NewQuestLike(), MaxDepth: 6, MinSplit: 50,
			SampleSize: int(unit), Seed: 3, Stats: &st, TempDir: b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Scans()), "scans")
		b.ReportMetric(float64(bt.BuildStats().FailedNodes), "failures")
		bt.Close()
	}
}

// --- Ablations (design choices called out in DESIGN.md) --------------------

// BenchmarkAblationBootstrapCount varies b, the number of bootstrap
// repetitions: more repetitions widen the confidence intervals (bigger
// stuck sets) but reduce interval escapes.
func BenchmarkAblationBootstrapCount(b *testing.B) {
	unit := envInt("BOAT_BENCH_UNIT", 10_000)
	src := gen.MustSource(gen.Config{Function: 7, Noise: 0.05}, 5*unit, 5)
	for _, trees := range []int{5, 10, 20, 40} {
		b.Run(strconv.Itoa(trees), func(b *testing.B) {
			var stuck, failures float64
			for i := 0; i < b.N; i++ {
				bt, err := core.Build(src, core.Config{
					Method: split.NewGini(), MaxDepth: 6, MinSplit: 50,
					SampleSize: int(unit), BootstrapTrees: trees,
					Seed: 3, TempDir: b.TempDir(),
				})
				if err != nil {
					b.Fatal(err)
				}
				st := bt.BuildStats()
				stuck += float64(st.StuckTuples)
				failures += float64(st.FailedNodes)
				bt.Close()
			}
			b.ReportMetric(stuck/float64(b.N), "stuck-tuples")
			b.ReportMetric(failures/float64(b.N), "failures")
		})
	}
}

// BenchmarkAblationSampleSize varies |D'|: larger samples produce deeper
// coarse trees (fewer frontier rebuilds) at higher sampling-phase cost.
func BenchmarkAblationSampleSize(b *testing.B) {
	unit := envInt("BOAT_BENCH_UNIT", 10_000)
	src := gen.MustSource(gen.Config{Function: 2, Noise: 0.05}, 6*unit, 9)
	for _, frac := range []int{20, 10, 5, 2} { // sample = n/frac
		b.Run("n_over_"+strconv.Itoa(frac), func(b *testing.B) {
			var coarse float64
			for i := 0; i < b.N; i++ {
				bt, err := core.Build(src, core.Config{
					Method: split.NewGini(), MaxDepth: 6, MinSplit: 50,
					SampleSize: int(6*unit) / frac,
					Seed:       3, TempDir: b.TempDir(),
				})
				if err != nil {
					b.Fatal(err)
				}
				coarse += float64(bt.BuildStats().CoarseNodes)
				bt.Close()
			}
			b.ReportMetric(coarse/float64(b.N), "coarse-nodes")
		})
	}
}

// BenchmarkAblationBuckets varies the discretization budget: tighter
// budgets risk lower-bound false alarms (verification failures).
func BenchmarkAblationBuckets(b *testing.B) {
	unit := envInt("BOAT_BENCH_UNIT", 10_000)
	src := gen.MustSource(gen.Config{Function: 6, Noise: 0.05}, 5*unit, 11)
	for _, budget := range []int{2, 8, 32, 128} {
		b.Run(strconv.Itoa(budget), func(b *testing.B) {
			var failures float64
			for i := 0; i < b.N; i++ {
				bt, err := core.Build(src, core.Config{
					Method: split.NewGini(), MaxDepth: 6, MinSplit: 50,
					SampleSize: int(unit), BucketBudget: budget,
					Seed: 3, TempDir: b.TempDir(),
				})
				if err != nil {
					b.Fatal(err)
				}
				failures += float64(bt.BuildStats().FailedNodes)
				bt.Close()
			}
			b.ReportMetric(failures/float64(b.N), "failures")
		})
	}
}

// BenchmarkAblationSpill varies the in-memory tuple budget, trading
// memory for temp-file traffic (the paper's low-memory configuration).
func BenchmarkAblationSpill(b *testing.B) {
	unit := envInt("BOAT_BENCH_UNIT", 10_000)
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 5*unit, 13)
	for _, budget := range []int64{0, 4 * 10_000, 10_000, 1000} {
		b.Run(strconv.FormatInt(budget, 10), func(b *testing.B) {
			var spilled float64
			for i := 0; i < b.N; i++ {
				var st iostats.Stats
				bt, err := core.Build(src, core.Config{
					Method: split.NewGini(), MaxDepth: 6, MinSplit: 50,
					SampleSize: int(unit), MemBudgetTuples: budget,
					Seed: 3, Stats: &st, TempDir: b.TempDir(),
				})
				if err != nil {
					b.Fatal(err)
				}
				spilled += float64(st.SpillTuples())
				bt.Close()
			}
			b.ReportMetric(spilled/float64(b.N), "spilled-tuples")
		})
	}
}

// --- Parallelism sweep ------------------------------------------------------

// BenchmarkBuildParallel builds the same dataset with the Parallelism knob
// at 1, 2, 4 and NumCPU workers. The produced tree is identical at every
// setting (the sub-benchmarks verify it against the sequential build), so
// the only difference is wall-clock: on a multi-core machine the bootstrap
// phase, the sharded cleanup scan and the parallel leaf completion overlap.
func BenchmarkBuildParallel(b *testing.B) {
	unit := envInt("BOAT_BENCH_UNIT", 10_000)
	src := gen.MustSource(gen.Config{Function: 6, Noise: 0.05}, 10*unit, 3)
	cfg := func(p int) core.Config {
		return core.Config{
			Method: split.NewGini(), MaxDepth: 6, MinSplit: 50,
			SampleSize: int(unit), Seed: 3, Parallelism: p,
		}
	}
	seq, err := core.Build(src, cfg(1))
	if err != nil {
		b.Fatal(err)
	}
	ref := seq.Tree()
	seq.Close()

	workers := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		workers = append(workers, n)
	}
	for _, p := range workers {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bt, err := core.Build(src, cfg(p))
				if err != nil {
					b.Fatal(err)
				}
				if !bt.Tree().Equal(ref) {
					b.Fatal("parallel build produced a different tree")
				}
				bt.Close()
			}
			b.ReportMetric(float64(p), "workers")
		})
	}
}

// --- Microbenchmarks of the hot paths ---------------------------------------

// BenchmarkMicroRouteTuples measures the cleanup-scan routing throughput.
func BenchmarkMicroRouteTuples(b *testing.B) {
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 50_000, 3)
	bt, err := core.Build(src, core.Config{
		Method: split.NewGini(), MaxDepth: 6, MinSplit: 50,
		SampleSize: 10_000, Seed: 1, TempDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer bt.Close()
	chunk := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 10_000, 99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bt.Insert(chunk); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := bt.Delete(chunk); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(10_000, "tuples/op")
}

// BenchmarkMicroClassify measures classification throughput through the
// public API: the per-tuple pointer walk (the seed-era baseline) and the
// chunked kernel, across two tree depths and two chunk geometries.
// Sub-benchmark names are depth<D>/<pointer|chunk<rows>>; compare
// tuples/sec and allocs/op across them.
func BenchmarkMicroClassify(b *testing.B) {
	src, err := boat.Synthetic(boat.SyntheticConfig{Function: 7, Noise: 0.05}, 30_000, 5)
	if err != nil {
		b.Fatal(err)
	}
	tuples, err := data.ReadAll(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{4, 8} {
		model, err := boat.Grow(src, boat.Options{
			Method: boat.Gini(), MaxDepth: depth, MinSplit: 20, Seed: 1, SampleSize: 5000,
		})
		if err != nil {
			b.Fatal(err)
		}
		tr := model.Tree()
		flat, err := boat.CompileTree(tr)
		if err != nil {
			model.Close()
			b.Fatal(err)
		}
		prefix := fmt.Sprintf("depth%d", tr.Depth())

		b.Run(prefix+"/pointer", func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				_ = tr.Classify(tuples[i%len(tuples)])
			}
			reportTuplesPerSec(b, int64(b.N), time.Since(start))
		})
		for _, rows := range []int{64, 1024} {
			b.Run(fmt.Sprintf("%s/chunk%d", prefix, rows), func(b *testing.B) {
				chunks := packChunks(tuples, len(src.Schema().Attributes), rows)
				out := make([]int, rows)
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				var n int64
				for i := 0; i < b.N; i++ {
					ch := chunks[i%len(chunks)]
					flat.ClassifyChunk(ch, out)
					n += int64(ch.Len())
				}
				reportTuplesPerSec(b, n, time.Since(start))
			})
		}
		model.Close()
	}
}

// packChunks transposes the tuples into columnar chunks of the given row
// capacity.
func packChunks(tuples []data.Tuple, width, rows int) []*data.Chunk {
	var chunks []*data.Chunk
	for base := 0; base < len(tuples); base += rows {
		end := base + rows
		if end > len(tuples) {
			end = len(tuples)
		}
		ch := data.NewChunk(width, rows)
		for _, tp := range tuples[base:end] {
			ch.AppendTuple(tp)
		}
		chunks = append(chunks, ch)
	}
	return chunks
}

func reportTuplesPerSec(b *testing.B, tuples int64, elapsed time.Duration) {
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(tuples)/s, "tuples/sec")
	}
}

// BenchmarkMicroPredict measures the full parallel predictor (scan +
// chunked kernels + worker pool) end to end over the same workload.
func BenchmarkMicroPredict(b *testing.B) {
	src, err := boat.Synthetic(boat.SyntheticConfig{Function: 7, Noise: 0.05}, 30_000, 5)
	if err != nil {
		b.Fatal(err)
	}
	model, err := boat.Grow(src, boat.Options{
		Method: boat.Gini(), MaxDepth: 8, MinSplit: 20, Seed: 1, SampleSize: 5000,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer model.Close()
	p, err := boat.NewPredictor(model.Tree(), boat.PredictorOptions{})
	if err != nil {
		b.Fatal(err)
	}
	tuples, err := data.ReadAll(src)
	if err != nil {
		b.Fatal(err)
	}
	mem := data.NewMemSource(src.Schema(), tuples)
	b.ResetTimer()
	start := time.Now()
	var n int64
	for i := 0; i < b.N; i++ {
		res, err := p.Predict(mem)
		if err != nil {
			b.Fatal(err)
		}
		n += res.Tuples
	}
	reportTuplesPerSec(b, n, time.Since(start))
}

// BenchmarkMicroRainForestScan measures one RF level scan for context.
func BenchmarkMicroRainForestScan(b *testing.B) {
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 50_000, 3)
	g := inmem.Config{Method: split.NewGini(), MaxDepth: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rainforest.Build(src, rainforest.Config{Grow: g}); err != nil {
			b.Fatal(err)
		}
	}
}
