package predict

import (
	"fmt"
	"runtime"
	"time"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/tree"
)

// Mode selects which classification implementation a Bench pass runs.
type Mode string

const (
	// ModeTuple is the seed-era baseline: one pointer-chasing
	// Tree.Classify walk per tuple.
	ModeTuple Mode = "tuple"
	// ModeChunk routes whole columnar chunks through the batch
	// ClassifyChunk kernel, sequentially.
	ModeChunk Mode = "chunk"
	// ModeParallel is the full predictor: a fresh Predictor's scan of
	// the source, its chunks shared with up to Parallelism − 1 helpers.
	ModeParallel Mode = "parallel"
)

// Measurement is the result of timing classification passes; the JSON
// field set mirrors core.ScanMeasurement so the two benchmark families
// report through the same tooling.
type Measurement struct {
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

// Bench holds one tree and one materialized dataset, prepared in every
// representation the modes need: row-major tuples for the per-tuple walk
// and pre-packed columnar chunks for the kernel, plus reused output
// buffers so the timed loops measure classification, not setup.
type Bench struct {
	tr     *tree.Tree
	flat   *tree.FlatTree
	cfg    Config
	tuples []data.Tuple
	chunks []*data.Chunk
	out    []int
	outAll []int
	src    data.Source
}

// NewBench materializes src and packs the chunk set.
func NewBench(t *tree.Tree, src data.Source, cfg Config) (*Bench, error) {
	if !t.Schema.Equal(src.Schema()) {
		return nil, data.ErrSchemaMismatch
	}
	f, err := tree.Compile(t)
	if err != nil {
		return nil, err
	}
	tuples, err := data.ReadAll(src)
	if err != nil {
		return nil, err
	}
	if len(tuples) == 0 {
		return nil, fmt.Errorf("predict: empty benchmark source")
	}
	rows := cfg.chunkRows()
	width := len(t.Schema.Attributes)
	var chunks []*data.Chunk
	for base := 0; base < len(tuples); base += rows {
		end := min(base+rows, len(tuples))
		ch := data.NewChunk(width, rows)
		for _, tp := range tuples[base:end] {
			ch.AppendTuple(tp)
		}
		chunks = append(chunks, ch)
	}
	return &Bench{
		tr: t, flat: f, cfg: cfg,
		tuples: tuples, chunks: chunks,
		out:    make([]int, rows),
		outAll: make([]int, len(tuples)),
		src:    src,
	}, nil
}

// Tuples returns the materialized dataset size.
func (b *Bench) Tuples() int { return len(b.tuples) }

// Flat returns the compiled tree under test.
func (b *Bench) Flat() *tree.FlatTree { return b.flat }

// RunOnce performs one full pass over the dataset in the given mode and
// returns the tuples classified.
func (b *Bench) RunOnce(mode Mode) (int64, error) {
	switch mode {
	case ModeTuple:
		for _, tp := range b.tuples {
			_ = b.tr.Classify(tp)
		}
	case ModeChunk:
		for _, ch := range b.chunks {
			b.flat.ClassifyChunk(ch, b.out)
		}
	case ModeParallel:
		p := NewFlat(b.flat, b.cfg)
		if _, err := p.Predict(b.src); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("predict: unknown bench mode %q", mode)
	}
	return int64(len(b.tuples)), nil
}

// Measure times rounds full passes in the given mode. TuplesPerSec comes
// from the fastest round: every mode runs under the same rule, and the
// minimum-time round is the one least distorted by scheduler and
// neighbor noise — the standard way to compare implementations on a
// shared machine. Seconds still reports total timed wall clock across
// all rounds. Allocation counts bracket only the passes, via
// runtime.MemStats deltas.
func (b *Bench) Measure(mode Mode, rounds int) (Measurement, error) {
	if rounds < 1 {
		rounds = 1
	}
	m := Measurement{Mode: string(mode), Rounds: rounds}
	// Collect once, then run one untimed pass. The collection keeps
	// other phases' garbage out of the rounds (once, not per round: a
	// GC's mark phase streams the whole heap and would evict the dataset
	// from cache before every measurement). The pass brings back what
	// the collection dropped (sync.Pool's caches, the kernel's scratch
	// among them), grows scratch buffers and faults in every page the
	// mode touches, so the timed rounds and their MemStats brackets see
	// only the steady state. The Mallocs/TotalAlloc deltas below are
	// exact monotonic counters and need no collection to be trustworthy.
	runtime.GC()
	if _, err := b.RunOnce(mode); err != nil {
		return m, err
	}
	var (
		elapsed        time.Duration
		best           time.Duration
		bestSeen       int64
		mallocs, bytes uint64
		ms             runtime.MemStats
	)
	for i := 0; i < rounds; i++ {
		runtime.ReadMemStats(&ms)
		m0, a0 := ms.Mallocs, ms.TotalAlloc
		start := time.Now()
		seen, err := b.RunOnce(mode)
		round := time.Since(start)
		elapsed += round
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - m0
		bytes += ms.TotalAlloc - a0
		if err != nil {
			return m, err
		}
		m.Tuples += seen
		if best == 0 || round < best {
			best, bestSeen = round, seen
		}
	}
	m.Seconds = elapsed.Seconds()
	if best > 0 {
		m.TuplesPerSec = float64(bestSeen) / best.Seconds()
	}
	m.AllocObjects, m.AllocBytes = int64(mallocs), int64(bytes)
	if m.Tuples > 0 {
		m.AllocsPerTuple = float64(mallocs) / float64(m.Tuples)
		m.BytesPerTuple = float64(bytes) / float64(m.Tuples)
	}
	if b.cfg.Stats != nil {
		b.cfg.Stats.RecordAllocs(int64(mallocs), int64(bytes))
	}
	return m, nil
}

// VerifyDeterminism re-runs the predictor across the acceptance matrix —
// Parallelism ∈ {1, 8} × chunk rows ∈ {1, 64, 1024} — and checks every
// label against the per-tuple pointer baseline. It returns the number of
// configurations checked.
func (b *Bench) VerifyDeterminism() (int, error) {
	want := b.outAll
	for i, tp := range b.tuples {
		want[i] = b.tr.Classify(tp)
	}
	checked := 0
	for _, par := range []int{1, 8} {
		for _, rows := range []int{1, 64, 1024} {
			cfg := b.cfg
			cfg.Parallelism, cfg.ChunkRows = par, rows
			res, err := NewFlat(b.flat, cfg).Predict(b.src)
			if err != nil {
				return checked, err
			}
			if len(res.Labels) != len(want) {
				return checked, fmt.Errorf("predict: P=%d rows=%d: %d labels, want %d",
					par, rows, len(res.Labels), len(want))
			}
			for i := range want {
				if res.Labels[i] != want[i] {
					return checked, fmt.Errorf("predict: P=%d rows=%d: label %d is %d, baseline %d",
						par, rows, i, res.Labels[i], want[i])
				}
			}
			checked++
		}
	}
	return checked, nil
}
