package warehouse

import (
	"hash/fnv"
	"io"
	"math/rand"
	"testing"

	"github.com/boatml/boat/internal/core"
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/split"
)

func star(t *testing.T) *Star {
	t.Helper()
	s, err := NewStar(500, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStarValidation(t *testing.T) {
	if _, err := NewStar(0, 10, 1); err == nil {
		t.Error("zero customers accepted")
	}
	if _, err := NewStar(10, 0, 1); err == nil {
		t.Error("zero products accepted")
	}
}

func TestViewSchemaValid(t *testing.T) {
	if err := ViewSchema().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrainingViewDeterministicRescans(t *testing.T) {
	view := star(t).TrainingView(5000, 3)
	a, err := data.ReadAll(view)
	if err != nil {
		t.Fatal(err)
	}
	b, err := data.ReadAll(view)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("tuple %d differs between scans of the join view", i)
		}
	}

	// The view's tuples are pinned across versions too: FNV over Tuple.Key
	// of the whole sequence, through the row scan and the chunked scan at
	// several chunk sizes.
	t.Run("digest", func(t *testing.T) {
		requireDigest(t, star(t).TrainingView(10000, 3), 0x8f13c4abdf1410cc)
	})
}

// requireDigest checks that the row scan and the chunked scans of src at
// several chunk sizes all deliver the tuple sequence whose FNV digest over
// Tuple.Key is want.
func requireDigest(t *testing.T, src data.Source, want uint64) {
	t.Helper()
	h := fnv.New64a()
	sc, err := src.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range batch {
			io.WriteString(h, tp.Key())
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("row scan digest %#x, want %#x", got, want)
	}
	for _, rows := range []int{1, 7, 64, data.DefaultChunkRows} {
		h.Reset()
		err := data.ForEachChunk(src, rows, func(ch *data.Chunk) error {
			for r := 0; r < ch.Len(); r++ {
				io.WriteString(h, ch.TupleCopy(r).Key())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Sum64(); got != want {
			t.Errorf("chunked scan (rows=%d) digest %#x, want %#x", rows, got, want)
		}
	}
}

func TestTrainingViewTuplesValid(t *testing.T) {
	view := star(t).TrainingView(8000, 5)
	schema := view.Schema()
	classes := [2]int64{}
	err := data.ForEach(view, func(tp data.Tuple) error {
		if err := schema.CheckTuple(tp); err != nil {
			t.Fatalf("invalid view tuple: %v", err)
		}
		classes[tp.Class]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if classes[Legitimate] < 500 || classes[Fraud] < 500 {
		t.Errorf("degenerate class balance %v", classes)
	}
}

func TestJoinConsistency(t *testing.T) {
	// Every view row's (age, income, region) combination must exist in
	// the customer dimension table, and (category, price) in products —
	// i.e. the join is real.
	s := star(t)
	custKeys := map[[3]float64]bool{}
	for _, c := range s.customers {
		custKeys[[3]float64{c.age, c.income, float64(c.region)}] = true
	}
	prodKeys := map[[2]float64]bool{}
	for _, p := range s.products {
		prodKeys[[2]float64{float64(p.category), p.price}] = true
	}
	err := data.ForEach(s.TrainingView(3000, 9), func(tp data.Tuple) error {
		if !custKeys[[3]float64{tp.Values[0], tp.Values[1], tp.Values[2]}] {
			t.Fatalf("row references a non-existent customer: %v", tp)
		}
		if !prodKeys[[2]float64{tp.Values[3], tp.Values[4]}] {
			t.Fatalf("row references a non-existent product: %v", tp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSamplingFromView(t *testing.T) {
	// The paper's requirement: random samples from the (unmaterialized)
	// training database must be obtainable.
	view := star(t).TrainingView(20000, 11)
	sample, err := data.ReservoirSample(view, 2000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != 2000 {
		t.Fatalf("sample size %d", len(sample))
	}
}

// TestBOATOverStarJoin is the paper's warehouse claim end to end: BOAT
// mines the exact tree from the star-join view in two scans, without the
// view ever being materialized.
func TestBOATOverStarJoin(t *testing.T) {
	view := star(t).TrainingView(30000, 13)
	var st iostats.Stats
	bt, err := core.Build(view, core.Config{
		Method: split.NewGini(), MaxDepth: 5, MinSplit: 100,
		SampleSize: 5000, Seed: 3, Stats: &st,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	if st.Scans() != 2 {
		t.Errorf("BOAT made %d scans of the join view, want 2", st.Scans())
	}
	tuples, err := data.ReadAll(view)
	if err != nil {
		t.Fatal(err)
	}
	ref := inmem.Build(view.Schema(), tuples, inmem.Config{
		Method: split.NewGini(), MaxDepth: 5, MinSplit: 100,
	})
	got := bt.Tree()
	if !got.Equal(ref) {
		t.Fatalf("star-join tree differs: %s", got.Diff(ref))
	}
	// The fraud concept is learnable: training error well under the 2%
	// label noise plus concept complexity.
	rate, err := got.MisclassificationRate(view)
	if err != nil {
		t.Fatal(err)
	}
	if rate > 0.15 {
		t.Errorf("training misclassification %v", rate)
	}
}
