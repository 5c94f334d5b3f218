package predict

import (
	"errors"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/eval"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// testModel trains a reference tree on a generator workload and returns
// it with its training source and the per-tuple baseline labels.
func testModel(t *testing.T, n int64) (*tree.Tree, data.Source, []int) {
	t.Helper()
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, n, 17)
	tuples, err := data.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	tr := inmem.Build(src.Schema(), tuples, inmem.Config{
		Method: split.NewGini(), MaxDepth: 10, MinSplit: 4,
	})
	want := make([]int, len(tuples))
	for i, tp := range tuples {
		want[i] = tr.Classify(tp)
	}
	return tr, src, want
}

// uncountedSource hides the cardinality so Predict exercises the
// segment-stitching path.
type uncountedSource struct{ data.Source }

func (u uncountedSource) Count() (int64, bool) { return 0, false }

// TestPredictDeterministic is the acceptance-criteria matrix: predictions
// are bit-identical to per-tuple Tree.Classify across Parallelism ∈
// {1, 2, 8} and chunk sizes {1, 64, 1024}, with and without a known
// cardinality.
func TestPredictDeterministic(t *testing.T) {
	tr, src, want := testModel(t, 5000)
	for _, par := range []int{1, 2, 8} {
		for _, rows := range []int{1, 64, 1024} {
			for _, counted := range []bool{true, false} {
				p, err := New(tr, Config{Parallelism: par, ChunkRows: rows})
				if err != nil {
					t.Fatal(err)
				}
				in := src
				if !counted {
					in = uncountedSource{src}
				}
				res, err := p.Predict(in)
				if err != nil {
					t.Fatalf("P=%d rows=%d counted=%v: %v", par, rows, counted, err)
				}
				if res.Tuples != int64(len(want)) {
					t.Fatalf("P=%d rows=%d counted=%v: %d tuples, want %d",
						par, rows, counted, res.Tuples, len(want))
				}
				for i := range want {
					if res.Labels[i] != want[i] {
						t.Fatalf("P=%d rows=%d counted=%v: label[%d] = %d, want %d",
							par, rows, counted, i, res.Labels[i], want[i])
					}
				}
			}
		}
	}
}

// TestPredictCompareMatrix checks that the merged per-worker confusion
// counts equal the eval package's row-at-a-time matrix.
func TestPredictCompareMatrix(t *testing.T) {
	tr, src, _ := testModel(t, 3000)
	ref, err := eval.Evaluate(tr, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		p, err := New(tr, Config{Parallelism: par, ChunkRows: 128, Compare: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Predict(src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matrix == nil {
			t.Fatal("Compare set but no matrix")
		}
		for a := range ref.Counts {
			for b := range ref.Counts[a] {
				if res.Matrix.Counts[a][b] != ref.Counts[a][b] {
					t.Errorf("P=%d: counts[%d][%d] = %d, want %d",
						par, a, b, res.Matrix.Counts[a][b], ref.Counts[a][b])
				}
			}
		}
	}
}

func TestPredictSchemaMismatch(t *testing.T) {
	tr, _, _ := testModel(t, 200)
	other := data.MustSchema([]data.Attribute{{Name: "x", Kind: data.Numeric}}, 2)
	p, err := New(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Predict(data.NewMemSource(other, nil))
	if !errors.Is(err, data.ErrSchemaMismatch) {
		t.Fatalf("err = %v, want ErrSchemaMismatch", err)
	}
}

// TestPredictObservability checks the predict span and the predict.*
// instruments.
func TestPredictObservability(t *testing.T) {
	tr, src, want := testModel(t, 1000)
	stats := &iostats.Stats{}
	tracer := obs.NewTracer(stats)
	reg := obs.NewRegistry()
	p, err := New(tr, Config{
		Parallelism: 2, Stats: stats, Trace: tracer, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(src); err != nil {
		t.Fatal(err)
	}
	roots := tracer.Roots()
	if len(roots) != 1 || roots[0].Name() != "predict" {
		t.Fatalf("trace roots = %v, want one predict span", roots)
	}
	if got := reg.Counter("predict.tuples").Value(); got != int64(len(want)) {
		t.Errorf("predict.tuples = %d, want %d", got, len(want))
	}
	if reg.Counter("predict.chunks").Value() == 0 {
		t.Error("predict.chunks not recorded")
	}
	if reg.Gauge("predict.tuples_per_sec").Value() <= 0 {
		t.Error("predict.tuples_per_sec not recorded")
	}
	if stats.TuplesRead() != int64(len(want)) {
		t.Errorf("stats.TuplesRead = %d, want %d", stats.TuplesRead(), len(want))
	}
}

// TestPredictorConcurrentUse runs concurrent Predict calls against one
// predictor (it is documented immutable/shareable); the race detector in
// CI does the real checking.
func TestPredictorConcurrentUse(t *testing.T) {
	tr, src, want := testModel(t, 1000)
	p, err := New(tr, Config{Parallelism: 2, ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			res, err := p.Predict(src)
			if err == nil {
				for i := range want {
					if res.Labels[i] != want[i] {
						err = errors.New("label mismatch under concurrency")
						break
					}
				}
			}
			done <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPredictOneChunkAllocs pins the read that serving makes most: a
// warm Predict of a source that fits in one chunk, at Parallelism 2,
// classifies the chunk on the calling goroutine with the tree's pooled
// kernel scratch. It starts no helper and allocates little beyond its
// labels and its result (the bound leaves room for the scanner and the
// boxed span attributes), and its labels equal Tree.Classify's.
func TestPredictOneChunkAllocs(t *testing.T) {
	tr, gsrc, want := testModel(t, 1000)
	tuples, err := data.ReadAll(gsrc)
	if err != nil {
		t.Fatal(err)
	}
	src := data.NewMemSource(gsrc.Schema(), tuples)
	p, err := New(tr, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	read := func() {
		if res, err = p.Predict(src); err != nil {
			t.Fatal(err)
		}
	}
	read() // warm the chunk pool and the kernel's scratch
	allocs := testing.AllocsPerRun(50, read)
	t.Logf("%v allocations per one-chunk Predict", allocs)
	if allocs > 8 && !raceEnabled {
		t.Errorf("a warm one-chunk Predict makes %v allocations, want at most 8", allocs)
	}
	if res.Chunks != 1 {
		t.Fatalf("read %d chunks, want 1", res.Chunks)
	}
	for i := range want {
		if res.Labels[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d", i, res.Labels[i], want[i])
		}
	}
}
