package predict

import (
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/obs"
)

// TestPredictLatencyRecorded: each Predict call lands one observation in
// predict.latency, and every routed chunk lands one in
// predict.chunk_latency, with sane quantile ordering.
func TestPredictLatencyRecorded(t *testing.T) {
	tr, src, _ := testModel(t, 2000)
	reg := obs.NewRegistry()
	p, err := New(tr, Config{Parallelism: 2, ChunkRows: 256, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	const calls = 3
	var chunks int64
	for i := 0; i < calls; i++ {
		res, err := p.Predict(src)
		if err != nil {
			t.Fatal(err)
		}
		chunks += res.Chunks
	}
	snap := reg.Snapshot()
	lat, ok := snap.Latencies["predict.latency"]
	if !ok || lat.Count != calls {
		t.Fatalf("predict.latency = %+v, want %d observations", lat, calls)
	}
	if lat.P50NS <= 0 || lat.P99NS < lat.P50NS || lat.P999NS < lat.P99NS {
		t.Fatalf("predict.latency quantiles out of order: %+v", lat)
	}
	chunkLat, ok := snap.Latencies["predict.chunk_latency"]
	if !ok || chunkLat.Count != chunks {
		t.Fatalf("predict.chunk_latency count = %d, want %d (one per chunk)",
			chunkLat.Count, chunks)
	}
}

// TestClassifyDisabledMetricsZeroAlloc is the serve-hot-loop gate: with
// metrics disabled, classify adds no allocations (and skips the clock
// reads entirely — the latency fields are nil). The count is not
// asserted under the race detector (see raceEnabled).
func TestClassifyDisabledMetricsZeroAlloc(t *testing.T) {
	tr, src, _ := testModel(t, 2000)
	p, err := New(tr, Config{Parallelism: 1, ChunkRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	if p.latency != nil || p.chunkLat != nil {
		t.Fatal("disabled metrics still created latency instruments")
	}
	tuples, err := data.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	ch := data.NewChunk(len(src.Schema().Attributes), 256)
	for _, tp := range tuples[:256] {
		ch.AppendTuple(tp)
	}
	out := make([]int, 256)
	var tl tally
	p.classify(ch, out, &tl) // warm the kernel's pooled scratch
	allocs := testing.AllocsPerRun(100, func() {
		p.classify(ch, out, &tl)
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("classify allocated %v objects per chunk with metrics disabled", allocs)
	}
}

// TestPredictLatencyDeterminism: enabling the latency instruments must
// not change a single predicted label.
func TestPredictLatencyDeterminism(t *testing.T) {
	tr, src, want := testModel(t, 3000)
	reg := obs.NewRegistry()
	p, err := New(tr, Config{Parallelism: 4, ChunkRows: 128, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Predict(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, lbl := range res.Labels {
		if lbl != want[i] {
			t.Fatalf("label %d = %d, want %d (metrics changed predictions)", i, lbl, want[i])
		}
	}
}
