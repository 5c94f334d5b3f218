// Package predict is the serving side of the repository: a batch
// predictor that routes columnar chunk streams through the compiled flat
// tree layout (tree.FlatTree). One scan loop reads the chunks on the
// calling goroutine and classifies each through the tree's batch kernel
// (FlatTree.ClassifyChunk, on the tree package's pooled scratch), handing
// a chunk to a helper goroutine only when one is idle.
//
// Determinism: predictions are bit-identical across every Parallelism and
// ChunkRows setting by construction. The scan assigns each chunk an
// absolute offset into the preallocated label vector before anyone
// classifies it, so the caller and the helpers write disjoint ranges of
// the same output regardless of completion order, and the routing kernel
// itself is deterministic.
package predict

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/eval"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/tree"
)

// Config tunes a Predictor. The zero value is usable: GOMAXPROCS workers,
// default chunk geometry, labels only.
type Config struct {
	// Parallelism bounds the goroutines that classify chunks: the caller
	// plus up to Parallelism − 1 helpers, started only once a source
	// yields a second chunk. <= 0 means runtime.GOMAXPROCS(0); 1 runs
	// inline with no goroutines.
	Parallelism int
	// ChunkRows is the row capacity of the scan chunks (default
	// data.DefaultChunkRows).
	ChunkRows int
	// Compare also fills a confusion matrix against the class labels
	// carried by the source (for accuracy reporting on labeled data).
	Compare bool
	// Stats, Trace, and Metrics are optional observability sinks (all
	// nil-safe): scan I/O accounting, a "predict" span, and the
	// predict.tuples / predict.chunks / predict.tuples_per_sec
	// instruments.
	Stats   *iostats.Stats
	Trace   *obs.Tracer
	Metrics *obs.Registry
}

func (c Config) workers() int {
	if c.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallelism
}

func (c Config) chunkRows() int {
	if c.ChunkRows <= 0 {
		return data.DefaultChunkRows
	}
	return c.ChunkRows
}

// Result is one Predict call's output.
type Result struct {
	// Labels holds the predicted class of every tuple, in source order.
	Labels []int
	// Tuples and Chunks count what was scanned.
	Tuples int64
	Chunks int64
	// Seconds is the wall-clock duration; TuplesPerSec the throughput.
	Seconds      float64
	TuplesPerSec float64
	// Matrix is the confusion matrix against the source's labels, only
	// when Config.Compare is set.
	Matrix *eval.ConfusionMatrix
}

// Predictor classifies columnar chunk streams against one compiled tree.
// It is safe for concurrent Predict calls; after construction it changes
// only the time of its last yield.
type Predictor struct {
	flat   *tree.FlatTree
	cfg    Config
	pool   *data.ChunkPool
	tuples *obs.Counter
	chunks *obs.Counter
	rate   *obs.Gauge
	// latency distributes whole-Predict wall time; chunkLat distributes
	// per-chunk kernel time (the serve hot path — recorded through a
	// sharded histogram so concurrent workers never contend on a lock).
	// Both are nil when metrics are disabled, and classify skips even the
	// clock reads then, so the disabled hot loop is untouched.
	latency  *obs.LatencyHistogram
	chunkLat *obs.LatencyHistogram
	// yielded is when a Predict call last yielded its processor, in
	// Unix nanoseconds (see yieldEvery).
	yielded atomic.Int64
}

// New compiles the tree and returns a predictor over it.
func New(t *tree.Tree, cfg Config) (*Predictor, error) {
	f, err := tree.Compile(t)
	if err != nil {
		return nil, err
	}
	return NewFlat(f, cfg), nil
}

// NewFlat wraps an already-compiled tree.
func NewFlat(f *tree.FlatTree, cfg Config) *Predictor {
	return &Predictor{
		flat:     f,
		cfg:      cfg,
		pool:     data.NewChunkPool(len(f.Schema().Attributes), cfg.chunkRows()),
		tuples:   cfg.Metrics.Counter("predict.tuples"),
		chunks:   cfg.Metrics.Counter("predict.chunks"),
		rate:     cfg.Metrics.Gauge("predict.tuples_per_sec"),
		latency:  cfg.Metrics.Latency("predict.latency"),
		chunkLat: cfg.Metrics.Latency("predict.chunk_latency"),
	}
}

// Flat returns the compiled layout the predictor routes through.
func (p *Predictor) Flat() *tree.FlatTree { return p.flat }

// tally is one goroutine's share of a Predict call's accounting: the
// chunks and tuples it classified and, under Compare, a flattened k×k
// confusion count block. The tallies merge after the scan; int64 adds
// commute, so the merged result does not depend on which goroutine
// classified which chunk.
type tally struct {
	counts []int64
	tuples int64
	chunks int64
}

func (p *Predictor) newTally() tally {
	var tl tally
	if p.cfg.Compare {
		k := p.flat.Schema().ClassCount
		tl.counts = make([]int64, k*k)
	}
	return tl
}

// job is one handed-off chunk plus its absolute slot in the output.
type job struct {
	ch  *data.Chunk
	out []int
}

// Predict scans src once and classifies every tuple.
func (p *Predictor) Predict(src data.Source) (*Result, error) {
	if !p.flat.Schema().Equal(src.Schema()) {
		return nil, data.ErrSchemaMismatch
	}
	span := p.cfg.Trace.Start("predict")
	defer span.End()
	span.SetAttr("parallelism", p.cfg.workers())
	span.SetAttr("chunk_rows", p.cfg.chunkRows())

	if p.cfg.Stats != nil {
		src = iostats.Tracked(src, p.cfg.Stats)
	}

	start := time.Now()
	res := &Result{}
	// Preallocate the label vector when the source knows its cardinality;
	// otherwise each chunk gets its own segment and they are stitched in
	// order afterward.
	var labels []int
	var segs [][]int
	if n, ok := src.Count(); ok {
		labels = make([]int, n)
	}
	if err := p.scan(src, labels, &segs, res); err != nil {
		return nil, err
	}

	if labels != nil {
		if int64(len(labels)) != res.Tuples {
			return nil, errors.New("predict: source cardinality changed mid-scan")
		}
		res.Labels = labels
	} else {
		res.Labels = make([]int, 0, res.Tuples)
		for _, s := range segs {
			res.Labels = append(res.Labels, s...)
		}
	}

	now := time.Now()
	elapsed := now.Sub(start)
	p.latency.Observe(elapsed)
	res.Seconds = elapsed.Seconds()
	if res.Seconds > 0 {
		res.TuplesPerSec = float64(res.Tuples) / res.Seconds
	}
	span.SetAttr("tuples", res.Tuples)
	span.SetAttr("chunks", res.Chunks)
	p.tuples.Add(res.Tuples)
	p.chunks.Add(res.Chunks)
	p.rate.Set(res.TuplesPerSec)
	if t := now.UnixNano(); t-p.yielded.Load() >= int64(yieldEvery) {
		p.yielded.Store(t)
		runtime.Gosched()
	}
	return res, nil
}

// yieldEvery bounds how long a closed loop of Predict calls keeps its
// processor. A read that fits in one chunk never blocks, so without a
// yield the loop would keep it for the scheduler's whole 10 ms time
// slice while runnable goroutines wait for one, an update's pool workers
// among them. A yield on every read costs more than a short read needs:
// it added about 1.7 µs to the 5.8 µs reads of a 3-node tree.
const yieldEvery = 100 * time.Microsecond

// dealOut returns the output slot for the next n rows: a slice of the
// preallocated vector when cardinality was known, a fresh ordered segment
// otherwise.
func dealOut(labels []int, segs *[][]int, offset, n int) ([]int, error) {
	if labels == nil {
		seg := make([]int, n)
		*segs = append(*segs, seg)
		return seg, nil
	}
	if offset+n > len(labels) {
		return nil, errors.New("predict: source produced more tuples than its declared count")
	}
	return labels[offset : offset+n], nil
}

// scan is the one classify loop. The caller reads every chunk of src and
// classifies it itself, unless an idle helper takes it. The Parallelism −
// 1 helpers start once the scan has yielded a second chunk, so a
// one-chunk read starts no goroutine, and the first helper to run takes
// that second chunk. After it no send waits: a chunk goes to a helper
// only when one is parked on the channel. Every chunk keeps the output
// slot dealOut gave it in source order, whoever classifies it.
func (p *Predictor) scan(src data.Source, labels []int, segs *[][]int, res *Result) error {
	sc, err := src.ScanChunks()
	if err != nil {
		return err
	}
	defer sc.Close()
	own := p.newTally()
	var (
		helpers []*tally
		jobs    chan job
		wg      sync.WaitGroup
		offset  int
	)
	for err == nil {
		ch := p.pool.Get()
		var out []int
		if err = sc.NextChunk(ch); err == nil && ch.Len() > 0 {
			out, err = dealOut(labels, segs, offset, ch.Len())
		}
		if err != nil || ch.Len() == 0 {
			p.pool.Put(ch)
			continue
		}
		offset += ch.Len()
		j := job{ch: ch, out: out}
		if jobs == nil && offset > ch.Len() && p.cfg.workers() > 1 {
			jobs = make(chan job)
			for i := 1; i < p.cfg.workers(); i++ {
				tl := p.newTally()
				helpers = append(helpers, &tl)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := range jobs {
						p.classify(j.ch, j.out, &tl)
						p.pool.Put(j.ch)
					}
				}()
			}
			// No helper is parked yet: wait for the first to take this
			// chunk, so it classifies while the caller reads the next.
			jobs <- j
			continue
		}
		select {
		case jobs <- j: // a nil channel never takes one
		default:
			p.classify(ch, out, &own)
			p.pool.Put(ch)
		}
	}
	if jobs != nil {
		close(jobs)
		wg.Wait()
	}
	if !errors.Is(err, io.EOF) {
		return err
	}
	p.merge(res, &own)
	for _, tl := range helpers {
		p.merge(res, tl)
	}
	return sc.Close()
}

// classify routes one chunk into its output slot through the tree's
// batch kernel and adds it to the goroutine's tally.
func (p *Predictor) classify(ch *data.Chunk, out []int, s *tally) {
	var t0 time.Time
	if p.chunkLat != nil {
		t0 = time.Now()
	}
	p.flat.ClassifyChunk(ch, out)
	if p.chunkLat != nil {
		p.chunkLat.Observe(time.Since(t0))
	}
	if s.counts != nil {
		k := p.flat.Schema().ClassCount
		for i, c := range ch.Classes() {
			s.counts[int(c)*k+out[i]]++
		}
	}
	s.tuples += int64(ch.Len())
	s.chunks++
}

func (p *Predictor) merge(res *Result, s *tally) {
	res.Tuples += s.tuples
	res.Chunks += s.chunks
	if s.counts == nil {
		return
	}
	if res.Matrix == nil {
		res.Matrix = eval.NewConfusionMatrix(p.flat.Schema().ClassCount)
	}
	k := p.flat.Schema().ClassCount
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			res.Matrix.Counts[a][b] += s.counts[a*k+b]
		}
	}
}
