package core

import (
	"fmt"
	"runtime"
	"time"

	"github.com/boatml/boat/internal/bootstrap"
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/split"
)

// ScanMode selects which cleanup-scan implementation a ScanBench pass
// runs.
type ScanMode string

const (
	// ScanModeRow is the row-at-a-time baseline: one root-to-stick
	// descent per tuple.
	ScanModeRow ScanMode = "row"
	// ScanModeChunk is the columnar scan the build runs: the chunk router
	// of Insert/Delete at weight +1.
	ScanModeChunk ScanMode = "chunk"
)

// ScanMeasurement is the result of timing cleanup-scan passes.
type ScanMeasurement struct {
	Mode           string  `json:"mode"`
	Rounds         int     `json:"rounds"`
	Tuples         int64   `json:"tuples"`
	Seconds        float64 `json:"seconds"`
	TuplesPerSec   float64 `json:"tuples_per_sec"`
	AllocObjects   int64   `json:"alloc_objects"`
	AllocBytes     int64   `json:"alloc_bytes"`
	AllocsPerTuple float64 `json:"allocs_per_tuple"`
	BytesPerTuple  float64 `json:"bytes_per_tuple"`
}

// ScanBench wraps a coarse-tree skeleton built once by a sampling phase,
// ready for repeated cleanup scans over the same source. Benchmarks need
// to time the scan in isolation, which means resetting the scan
// statistics between passes instead of rebuilding the whole tree; the
// reset is exact (see resetScanState), so every pass reproduces the same
// statistics.
type ScanBench struct {
	tree *Tree
	src  data.Source
	root *bnode
}

// NewScanBench runs the sampling phase of a Build (sample, bootstrap,
// skeleton, discretizations) and returns the skeleton ready for cleanup
// scans. Close it to release the skeleton's buffers.
func NewScanBench(src data.Source, cfg Config) (*ScanBench, error) {
	n, err := data.CountTuples(src)
	if err != nil {
		return nil, err
	}
	cfg, err = cfg.withDefaults(n)
	if err != nil {
		return nil, err
	}
	budget := cfg.Budget
	if budget == nil {
		budget = data.NewMemBudget(cfg.MemBudgetTuples)
	}
	t := &Tree{
		cfg:    cfg,
		schema: src.Schema(),
		budget: budget,
		met:    newMetricSet(cfg.Metrics),
		log:    resolveLogger(cfg.Logger),
	}
	t.impurityBased, _ = cfg.Method.(split.ImpurityBased)
	t.momentBased, _ = cfg.Method.(split.MomentBased)
	if t.impurityBased == nil && t.momentBased == nil {
		return nil, fmt.Errorf("core: unsupported method %q", cfg.Method.Name())
	}
	tracked := iostats.Tracked(src, cfg.Stats)
	sample, err := t.drawSample(tracked)
	if err != nil {
		return nil, err
	}
	bcfg := bootstrap.Config{
		Trees:         cfg.BootstrapTrees,
		SubsampleSize: cfg.SubsampleSize,
		WidenFraction: cfg.WidenFraction,
		TreeConfig:    t.bootstrapGrowConfig(n),
		Seed:          cfg.Seed + 104729*t.seedCounter.Add(1),
		Parallelism:   cfg.workers(),
	}
	coarse, _, err := bootstrap.BuildCoarse(t.schema, sample, bcfg)
	if err != nil {
		return nil, fmt.Errorf("core: bootstrap: %w", err)
	}
	root := t.skeletonFromCoarse(coarse, sample, 0)
	return &ScanBench{tree: t, src: tracked, root: root}, nil
}

// Reset zeroes every scan statistic and buffer, preparing the skeleton
// for another pass.
func (b *ScanBench) Reset() error { return resetScanState(b.root) }

// RunOnce performs one cleanup scan in the given mode over a skeleton
// that must be freshly built or Reset, returning the tuples seen.
func (b *ScanBench) RunOnce(mode ScanMode) (int64, error) {
	switch mode {
	case ScanModeRow:
		return b.tree.rowScan(b.src, b.root)
	case ScanModeChunk:
		return b.tree.scanPass(b.src, b.root, nil)
	}
	return 0, fmt.Errorf("core: unknown scan mode %q", mode)
}

// Close releases the skeleton's buffers (spill files, arenas).
func (b *ScanBench) Close() { closeSubtree(b.root) }

// Measure times rounds cleanup-scan passes in the given mode, resetting
// between passes. Reset time is excluded from the timing; the allocation
// counts bracket only the scans (via runtime.MemStats deltas) and are
// also recorded into the config's Stats when present.
func (b *ScanBench) Measure(mode ScanMode, rounds int) (ScanMeasurement, error) {
	if rounds < 1 {
		rounds = 1
	}
	m := ScanMeasurement{Mode: string(mode), Rounds: rounds}
	var (
		elapsed        time.Duration
		mallocs, bytes uint64
		ms             runtime.MemStats
	)
	for i := 0; i < rounds; i++ {
		if err := b.Reset(); err != nil {
			return m, err
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m0, a0 := ms.Mallocs, ms.TotalAlloc
		start := time.Now()
		seen, err := b.RunOnce(mode)
		elapsed += time.Since(start)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - m0
		bytes += ms.TotalAlloc - a0
		if err != nil {
			return m, err
		}
		m.Tuples += seen
	}
	m.Seconds = elapsed.Seconds()
	if m.Seconds > 0 {
		m.TuplesPerSec = float64(m.Tuples) / m.Seconds
	}
	m.AllocObjects, m.AllocBytes = int64(mallocs), int64(bytes)
	if m.Tuples > 0 {
		m.AllocsPerTuple = float64(mallocs) / float64(m.Tuples)
		m.BytesPerTuple = float64(bytes) / float64(m.Tuples)
	}
	b.tree.cfg.Stats.RecordAllocs(int64(mallocs), int64(bytes))
	return m, nil
}
