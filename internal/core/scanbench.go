package core

import (
	"runtime"
	"time"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/iostats"
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
// skeleton, discretizations) on one pool and returns the skeleton ready
// for cleanup scans. Close it to release the skeleton's buffers.
func NewScanBench(src data.Source, cfg Config) (*ScanBench, error) {
	n, err := data.CountTuples(src)
	if err != nil {
		return nil, err
	}
	t, err := newTree(src.Schema(), cfg, n)
	if err != nil {
		return nil, err
	}
	tracked := iostats.Tracked(src, t.cfg.Stats)
	sample, err := t.drawSample(tracked)
	if err != nil {
		return nil, err
	}
	wk, stop := newPool(t.cfg.Parallelism).Start()
	defer stop()
	root, err := t.skeleton(sample, n, 0, nil, wk)
	if err != nil {
		return nil, err
	}
	return &ScanBench{tree: t, src: tracked, root: root}, nil
}

// Reset zeroes every scan statistic and buffer, preparing the skeleton
// for another pass.
func (b *ScanBench) Reset() error { return resetScanState(b.root) }

// RunOnce performs one cleanup scan — the chunk router at weight +1 on
// one pool, as the build runs it — over a skeleton that must be freshly
// built or Reset, returning the tuples seen.
func (b *ScanBench) RunOnce() (int64, error) {
	wk, stop := newPool(b.tree.cfg.Parallelism).Start()
	defer stop()
	return b.tree.scanPass(b.src, b.root, nil, wk)
}

// Close releases the skeleton's buffers (spill files, arenas).
func (b *ScanBench) Close() { closeSubtree(b.root) }

// Measure times rounds cleanup-scan passes, resetting between passes.
// Reset time is excluded from the timing; the allocation counts bracket
// only the scans (via runtime.MemStats deltas) and are also recorded into
// the config's Stats when present.
func (b *ScanBench) Measure(rounds int) (ScanMeasurement, error) {
	if rounds < 1 {
		rounds = 1
	}
	m := ScanMeasurement{Mode: "chunk", Rounds: rounds}
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
		seen, err := b.RunOnce()
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
