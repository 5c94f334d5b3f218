// Package experiments reproduces the performance evaluation of Section 5
// of the BOAT paper: every figure (4-15) has a runner that generates the
// corresponding workload, executes BOAT and the RainForest baselines (or
// the incremental-update comparison), checks that all algorithms produce
// the identical tree, and reports wall-clock time together with
// hardware-independent I/O counts (scans, tuples read, spilled tuples).
//
// Sizes are expressed in the paper's "millions of tuples"; Config.Unit
// maps one paper-million to an actual tuple count, so the default
// laptop-scale runs sweep 100k-500k tuples while -unit=1000000 reproduces
// the full 2M-10M experiments. All thresholds (the in-memory switch at
// 1.5M tuples, the 200k sample, the 50k bootstrap subsamples, the 3M/1.8M
// AVC buffers) are scaled consistently.
package experiments

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"

	"github.com/boatml/boat/internal/core"
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/rainforest"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// Config scales and parameterizes the experiment suite.
type Config struct {
	// Unit is the number of tuples per paper-"million" (default 50000,
	// i.e. a 20x scale-down; set 1000000 for the paper's full sizes).
	Unit int64
	// MaxUnits is the largest dataset in the scalability sweep
	// (paper: 10).
	MaxUnits int
	// SampleUnits is the sampling-phase sample size in units of 0.2
	// paper-millions... expressed directly: the sample is
	// SampleFraction of a paper-million (paper: 0.2). Bootstraps and
	// SubsampleFraction follow the paper's 20 repetitions of 50k.
	SampleFraction    float64
	SubsampleFraction float64
	Bootstraps        int
	// ThresholdUnits is the in-memory switch threshold in paper-millions
	// (paper: 1.5 of 10).
	ThresholdUnits float64
	// UseFiles materializes each dataset as a 40-byte-record binary file
	// and scans it from disk (the honest I/O configuration); otherwise
	// datasets are re-generated per scan (CPU-bound configuration).
	UseFiles bool
	// Dir is the scratch directory for dataset and spill files.
	Dir string
	// Seed drives dataset generation and sampling.
	Seed int64
	// Method is the split selection method (default gini).
	Method split.Method
	// Parallelism is the worker count for BOAT's parallel phases
	// (0 = runtime.GOMAXPROCS(0), 1 = sequential). The produced trees are
	// identical at every setting; only wall-clock times change.
	Parallelism int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Logger, when non-nil, receives progress records as structured logs
	// (preferred over Log) and is threaded into the BOAT builds.
	Logger *slog.Logger
	// Metrics, when non-nil, receives the metrics of every BOAT build an
	// experiment performs (counters accumulate across builds).
	Metrics *obs.Registry
}

func (c Config) normalized() Config {
	if c.Unit <= 0 {
		c.Unit = 50_000
	}
	if c.MaxUnits <= 0 {
		c.MaxUnits = 10
	}
	if c.SampleFraction <= 0 {
		c.SampleFraction = 0.2 // 200k per paper-million-of-10M ... see sample()
	}
	if c.SubsampleFraction <= 0 {
		c.SubsampleFraction = 0.25
	}
	if c.Bootstraps <= 0 {
		c.Bootstraps = 20
	}
	if c.ThresholdUnits <= 0 {
		c.ThresholdUnits = 1.5
	}
	if c.Dir == "" {
		c.Dir = os.TempDir()
	}
	if c.Method == nil {
		c.Method = split.NewGini()
	}
	return c
}

// sampleSize returns |D'|: the paper uses a fixed 200000-tuple sample
// regardless of database size; scaled, that is 0.2 paper-millions.
func (c Config) sampleSize() int { return int(float64(c.Unit) * c.SampleFraction) }

func (c Config) subsampleSize() int {
	return int(float64(c.sampleSize()) * c.SubsampleFraction)
}

func (c Config) threshold() int64 { return int64(c.ThresholdUnits * float64(c.Unit)) }

func (c Config) logf(format string, args ...any) {
	if c.Logger != nil {
		c.Logger.Info(fmt.Sprintf(format, args...))
		return
	}
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Row is one measured point of a figure.
type Row struct {
	Figure string
	// X is the sweep coordinate (dataset size in paper-millions, noise
	// percentage, number of extra attributes, or cumulative inserted
	// paper-millions for the dynamic figures).
	X      float64
	XLabel string
	Algo   string
	// Seconds is wall-clock time.
	Seconds float64
	// Scans / TuplesRead / SpillTuples are the hardware-independent
	// costs over the training database (plus temp I/O).
	Scans       int64
	TuplesRead  int64
	SpillTuples int64
	// Nodes is the size of the produced tree.
	Nodes int
}

// FormatRows renders rows as an aligned table grouped by figure.
func FormatRows(w io.Writer, rows []Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "figure\tx\talgo\tseconds\tscans\ttuples_read\tspill_tuples\tnodes")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s=%g\t%s\t%.3f\t%d\t%d\t%d\t%d\n",
			r.Figure, r.XLabel, r.X, r.Algo, r.Seconds, r.Scans, r.TuplesRead, r.SpillTuples, r.Nodes)
	}
	tw.Flush()
}

// algoResult is one algorithm execution over one dataset.
type algoResult struct {
	tree    *tree.Tree
	seconds float64
	io      iostats.Snapshot
}

// makeSource materializes (or wraps) a generated dataset.
func (c Config) makeSource(cfg gen.Config, n int64, seed int64, tag string) (data.Source, func(), error) {
	src, err := gen.NewSource(cfg, n, seed)
	if err != nil {
		return nil, nil, err
	}
	if !c.UseFiles {
		return src, func() {}, nil
	}
	path := filepath.Join(c.Dir, fmt.Sprintf("boat-exp-%s-%d-%d.dat", tag, n, seed))
	if _, err := data.WriteFile(path, src, data.FormatCompact); err != nil {
		return nil, nil, err
	}
	fs, err := data.OpenFile(path)
	if err != nil {
		os.Remove(path)
		return nil, nil, err
	}
	return fs, func() { os.Remove(path) }, nil
}

// grow holds the shared stopping rules of the performance methodology:
// growth stops once a family fits in memory (StopAtThreshold).
func (c Config) grow() inmem.Config {
	return inmem.Config{
		Method:          c.Method,
		StopThreshold:   c.threshold(),
		StopAtThreshold: true,
	}
}

// avcBuffers derives the RF-Hybrid and RF-Vertical AVC buffer sizes: the
// paper uses 3M and 1.8M entries against a ~2M-entry root AVC-group of
// the 10M-tuple dataset — i.e. the root fits for RF-Hybrid and does not
// for RF-Vertical. We scale from the estimated root AVC-group size of the
// largest dataset in the sweep.
func (c Config) avcBuffers(maxTuples int64, extraAttrs int) (hybrid, vertical int64) {
	root := estimateRootEntries(maxTuples, extraAttrs)
	return root * 3 / 2, root * 6 / 10
}

// estimateRootEntries approximates the distinct-value totals of the
// 9-attribute Agrawal schema at a given dataset size.
func estimateRootEntries(n int64, extraAttrs int) int64 {
	min := func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
	var e int64
	e += min(n, 130_001) // salary
	e += min(n, 65_002)  // commission
	e += min(n, 61)      // age
	e += 5 + 20 + 9      // categorical domains
	e += min(n, 900_000) // hvalue (union of the per-zipcode ranges)
	e += min(n, 30)      // hyears
	e += min(n, 500_001) // loan
	e += int64(extraAttrs) * min(n, 100_001)
	return e
}

func (c Config) boatConfig(st *iostats.Stats) core.Config {
	return core.Config{
		Method:          c.Method,
		SampleSize:      c.sampleSize(),
		SubsampleSize:   c.subsampleSize(),
		BootstrapTrees:  c.Bootstraps,
		StopThreshold:   c.threshold(),
		StopAtThreshold: true,
		TempDir:         c.Dir,
		Seed:            c.Seed + 1,
		Stats:           st,
		Parallelism:     c.Parallelism,
		Metrics:         c.Metrics,
		Logger:          c.Logger,
	}
}

// runBOAT builds with BOAT and returns the result.
func (c Config) runBOAT(src data.Source) (algoResult, error) {
	var st iostats.Stats
	start := time.Now()
	bt, err := core.Build(src, c.boatConfig(&st))
	if err != nil {
		return algoResult{}, fmt.Errorf("BOAT: %w", err)
	}
	defer bt.Close()
	elapsed := time.Since(start).Seconds()
	return algoResult{tree: bt.Tree(), seconds: elapsed, io: st.Snapshot()}, nil
}

// runRF builds with RF-Hybrid or RF-Vertical.
func (c Config) runRF(src data.Source, buffer int64, vertical bool) (algoResult, error) {
	var st iostats.Stats
	start := time.Now()
	tr, _, err := rainforest.Build(src, rainforest.Config{
		Grow:             c.grow(),
		AVCBufferEntries: buffer,
		Vertical:         vertical,
		TempDir:          c.Dir,
		Stats:            &st,
	})
	if err != nil {
		return algoResult{}, fmt.Errorf("rainforest(vertical=%v): %w", vertical, err)
	}
	return algoResult{tree: tr, seconds: time.Since(start).Seconds(), io: st.Snapshot()}, nil
}

// comparePoint runs BOAT, RF-Hybrid and RF-Vertical on one dataset,
// verifies the identical-tree guarantee across all three, and emits the
// three rows.
func (c Config) comparePoint(fig, xlabel string, x float64, cfg gen.Config, n int64, seed int64) ([]Row, error) {
	src, cleanup, err := c.makeSource(cfg, n, seed, fig)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	hybridBuf, verticalBuf := c.avcBuffers(int64(c.MaxUnits)*c.Unit, cfg.ExtraAttrs)

	boatRes, err := c.runBOAT(src)
	if err != nil {
		return nil, err
	}
	hybridRes, err := c.runRF(src, hybridBuf, false)
	if err != nil {
		return nil, err
	}
	verticalRes, err := c.runRF(src, verticalBuf, true)
	if err != nil {
		return nil, err
	}
	if !boatRes.tree.Equal(hybridRes.tree) {
		return nil, fmt.Errorf("%s x=%g: BOAT and RF-Hybrid trees differ: %s",
			fig, x, boatRes.tree.Diff(hybridRes.tree))
	}
	if !boatRes.tree.Equal(verticalRes.tree) {
		return nil, fmt.Errorf("%s x=%g: BOAT and RF-Vertical trees differ: %s",
			fig, x, boatRes.tree.Diff(verticalRes.tree))
	}
	c.logf("%s %s=%g: BOAT %.2fs/%d scans | RF-Hybrid %.2fs/%d scans | RF-Vertical %.2fs/%d scans",
		fig, xlabel, x, boatRes.seconds, boatRes.io.Scans,
		hybridRes.seconds, hybridRes.io.Scans, verticalRes.seconds, verticalRes.io.Scans)

	mk := func(algo string, r algoResult) Row {
		return Row{
			Figure: fig, X: x, XLabel: xlabel, Algo: algo,
			Seconds: r.seconds, Scans: r.io.Scans, TuplesRead: r.io.TuplesRead,
			SpillTuples: r.io.SpillTuples, Nodes: r.tree.NumNodes(),
		}
	}
	return []Row{
		mk("BOAT", boatRes),
		mk("RF-Hybrid", hybridRes),
		mk("RF-Vertical", verticalRes),
	}, nil
}

// RunScalability reproduces Figures 4-6: overall construction time versus
// training database size (2 to MaxUnits paper-millions) for one
// classification function.
func RunScalability(fig string, fn int, c Config) ([]Row, error) {
	c = c.normalized()
	var rows []Row
	for units := 2; units <= c.MaxUnits; units += 2 {
		n := int64(units) * c.Unit
		pts, err := c.comparePoint(fig, "millions", float64(units),
			gen.Config{Function: fn, Noise: 0.05}, n, c.Seed+int64(units))
		if err != nil {
			return rows, err
		}
		rows = append(rows, pts...)
	}
	return rows, nil
}

// RunNoise reproduces Figures 7-9: construction time at a fixed size
// (5 paper-millions) as label noise grows from 2% to 10%.
func RunNoise(fig string, fn int, c Config) ([]Row, error) {
	c = c.normalized()
	n := 5 * c.Unit
	var rows []Row
	for _, pct := range []int{2, 4, 6, 8, 10} {
		pts, err := c.comparePoint(fig, "noise%", float64(pct),
			gen.Config{Function: fn, Noise: float64(pct) / 100}, n, c.Seed+int64(pct))
		if err != nil {
			return rows, err
		}
		rows = append(rows, pts...)
	}
	return rows, nil
}

// RunExtraAttrs reproduces Figures 10-11: construction time as
// non-predictive random attributes are appended to the records.
func RunExtraAttrs(fig string, fn int, c Config) ([]Row, error) {
	c = c.normalized()
	n := 5 * c.Unit
	var rows []Row
	for _, extra := range []int{0, 2, 4, 6} {
		pts, err := c.comparePoint(fig, "extra", float64(extra),
			gen.Config{Function: fn, Noise: 0.05, ExtraAttrs: extra}, n, c.Seed+int64(extra))
		if err != nil {
			return rows, err
		}
		rows = append(rows, pts...)
	}
	return rows, nil
}

// InstabilityResult reproduces Figure 12's phenomenon quantitatively.
type InstabilityResult struct {
	// Points are the bootstrap split points at the root across all
	// repetitions.
	Points []float64
	// NearLow / NearHigh count points near the two tied minima (19, 60).
	NearLow, NearHigh int
	// IntervalLo/Hi is the resulting confidence interval (when the root
	// survived).
	IntervalLo, IntervalHi float64
	// RootSurvived is whether all bootstrap trees agreed at the root.
	RootSurvived bool
	// CoarseNodes is the size of the coarse tree (growth stops quickly
	// below the root because subtrees of the two far-apart splits
	// differ).
	CoarseNodes int
	// BOATExact confirms BOAT still produced the reference tree.
	BOATExact bool
	// Failures is the number of verification failures BOAT recovered
	// from.
	Failures int64
}

// RunInstability builds the two-tied-minima dataset of Figure 12 and
// reports the bimodality of the bootstrap split points, plus BOAT's
// behaviour (stopped coarse growth / verification failures / exactness).
func RunInstability(c Config) (InstabilityResult, error) {
	c = c.normalized()
	var res InstabilityResult
	n := 2 * c.Unit
	src := gen.InstabilitySource(n, c.Seed+77)

	// Sampling-phase view: bootstrap split points at the root.
	sample, err := data.ReservoirSample(src, c.sampleSize(), newRand(c.Seed+1))
	if err != nil {
		return res, err
	}
	root, bstats, err := bootstrapBuild(c, src.Schema(), sample)
	if err != nil {
		return res, err
	}
	res.CoarseNodes = bstats.CoarseNodes
	if root != nil {
		res.RootSurvived = true
		res.Points = root.Points
		res.IntervalLo, res.IntervalHi = root.Lo, root.Hi
		for _, p := range root.Points {
			if p < 40 {
				res.NearLow++
			} else {
				res.NearHigh++
			}
		}
		sort.Float64s(res.Points)
	}

	// Full BOAT run: exactness must survive the instability.
	grow := inmem.Config{Method: c.Method, MaxDepth: 4, MinSplit: 100}
	tuples, err := data.ReadAll(src)
	if err != nil {
		return res, err
	}
	ref := inmem.Build(src.Schema(), tuples, grow)
	bt, err := core.Build(src, core.Config{
		Method: c.Method, MaxDepth: 4, MinSplit: 100,
		SampleSize: c.sampleSize(), SubsampleSize: c.subsampleSize(),
		BootstrapTrees: c.Bootstraps, Seed: c.Seed + 2, TempDir: c.Dir,
	})
	if err != nil {
		return res, err
	}
	defer bt.Close()
	res.BOATExact = bt.Tree().Equal(ref)
	res.Failures = bt.BuildStats().FailedNodes
	return res, nil
}
