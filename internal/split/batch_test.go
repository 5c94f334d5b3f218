package split

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/boatml/boat/internal/data"
)

// randomBatch builds a random value column and class column, plus an
// index subset covering about half the rows.
func randomBatch(rng *rand.Rand, n, cardinality, classes int, numeric bool) (col []float64, cls []int32, idx []int32) {
	col = make([]float64, n)
	cls = make([]int32, n)
	for i := range col {
		if numeric {
			// Mix of signs and magnitudes, including values whose squares
			// need the 128-bit path, and repeated values.
			switch rng.Intn(4) {
			case 0:
				col[i] = float64(rng.Intn(20) - 10)
			case 1:
				col[i] = float64(rng.Int63n(1 << 40))
			case 2:
				col[i] = -float64(rng.Int63n(1 << 40))
			default:
				col[i] = float64(rng.Intn(5))
			}
		} else {
			col[i] = float64(rng.Intn(cardinality))
		}
		cls[i] = int32(rng.Intn(classes))
	}
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			idx = append(idx, int32(i))
		}
	}
	return col, cls, idx
}

// TestCatAVCAddBatchEquivalence: AddBatch must equal a loop of Add, for
// both the all-rows (idx == nil) and the index-subset form.
func TestCatAVCAddBatchEquivalence(t *testing.T) {
	const classes = 3
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 1 + rng.Intn(300)
		card := 1 + rng.Intn(16)
		col, cls, idx := randomBatch(rng, n, card, classes, false)

		batch := NewCatAVC(card, classes)
		loop := NewCatAVC(card, classes)
		batch.AddBatch(col, cls, nil, 1)
		for r, v := range col {
			loop.Add(int(v), int(cls[r]), 1)
		}
		requireSameCatAVC(t, fmt.Sprintf("trial %d all-rows", trial), batch, loop)

		batch = NewCatAVC(card, classes)
		loop = NewCatAVC(card, classes)
		batch.AddBatch(col, cls, idx, 1)
		for _, r := range idx {
			loop.Add(int(col[r]), int(cls[r]), 1)
		}
		requireSameCatAVC(t, fmt.Sprintf("trial %d subset", trial), batch, loop)
	}
}

func requireSameCatAVC(t *testing.T, label string, a, b *CatAVC) {
	t.Helper()
	for c := range a.Counts {
		for j := range a.Counts[c] {
			if a.Counts[c][j] != b.Counts[c][j] {
				t.Fatalf("%s: counts[%d][%d] = %d, want %d", label, c, j, a.Counts[c][j], b.Counts[c][j])
			}
		}
	}
}

// TestNumMomentsAddBatchEquivalence: AddBatch must reproduce Add(v, c, 1)
// bit for bit, including the 128-bit squared sums.
func TestNumMomentsAddBatchEquivalence(t *testing.T) {
	const classes = 4
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(1000 + int64(trial)))
		n := 1 + rng.Intn(300)
		col, cls, idx := randomBatch(rng, n, 0, classes, true)

		batch := NewNumMoments(classes)
		loop := NewNumMoments(classes)
		batch.AddBatch(col, cls, nil, 1)
		for r, v := range col {
			loop.Add(v, int(cls[r]), 1)
		}
		requireSameMoments(t, fmt.Sprintf("trial %d all-rows", trial), batch, loop)

		batch = NewNumMoments(classes)
		loop = NewNumMoments(classes)
		batch.AddBatch(col, cls, idx, 1)
		for _, r := range idx {
			loop.Add(col[r], int(cls[r]), 1)
		}
		requireSameMoments(t, fmt.Sprintf("trial %d subset", trial), batch, loop)
	}
}

func requireSameMoments(t *testing.T, label string, a, b *NumMoments) {
	t.Helper()
	for c := range a.Count {
		if a.Count[c] != b.Count[c] || a.Sum[c] != b.Sum[c] ||
			a.SqHi[c] != b.SqHi[c] || a.SqLo[c] != b.SqLo[c] {
			t.Fatalf("%s: class %d: (%d,%d,%d,%d) want (%d,%d,%d,%d)", label, c,
				a.Count[c], a.Sum[c], a.SqHi[c], a.SqLo[c],
				b.Count[c], b.Sum[c], b.SqHi[c], b.SqLo[c])
		}
	}
}

// TestMomentsAddChunkEquivalence: the chunk-level kernel must equal a
// loop of Moments.Add over the same rows.
func TestMomentsAddChunkEquivalence(t *testing.T) {
	schema := data.MustSchema([]data.Attribute{
		{Name: "x", Kind: data.Numeric},
		{Name: "c", Kind: data.Categorical, Cardinality: 5},
		{Name: "y", Kind: data.Numeric},
	}, 3)
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(2000 + int64(trial)))
		n := 1 + rng.Intn(200)
		ch := data.NewChunk(3, n)
		var tuples []data.Tuple
		for i := 0; i < n; i++ {
			tp := data.Tuple{Values: []float64{
				float64(rng.Intn(1000) - 500),
				float64(rng.Intn(5)),
				float64(rng.Int63n(1 << 30)),
			}, Class: rng.Intn(3)}
			tuples = append(tuples, tp)
			ch.AppendTuple(tp)
		}
		var idx []int32
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				idx = append(idx, int32(i))
			}
		}

		batch := NewMoments(schema)
		loop := NewMoments(schema)
		batch.AddChunk(ch, nil, 1)
		for _, tp := range tuples {
			loop.Add(tp, 1)
		}
		requireSameMomentsGroup(t, fmt.Sprintf("trial %d all-rows", trial), batch, loop)

		batch = NewMoments(schema)
		loop = NewMoments(schema)
		batch.AddChunk(ch, idx, 1)
		for _, r := range idx {
			loop.Add(tuples[r], 1)
		}
		requireSameMomentsGroup(t, fmt.Sprintf("trial %d subset", trial), batch, loop)
	}
}

func requireSameMomentsGroup(t *testing.T, label string, a, b *Moments) {
	t.Helper()
	for c := range a.ClassTotals {
		if a.ClassTotals[c] != b.ClassTotals[c] {
			t.Fatalf("%s: class total %d: %d want %d", label, c, a.ClassTotals[c], b.ClassTotals[c])
		}
	}
	for i := range a.Schema.Attributes {
		if a.Num[i] != nil {
			requireSameMoments(t, fmt.Sprintf("%s attr %d", label, i), a.Num[i], b.Num[i])
		} else {
			requireSameCatAVC(t, fmt.Sprintf("%s attr %d", label, i), a.Cat[i], b.Cat[i])
		}
	}
}

// TestSignedBatchRoundTrip: a batch added at weight +1 and removed at -1
// must leave every count of CatAVC, NumMoments and Moments at zero, for
// all rows and for an index subset, with NaN among the numeric values.
func TestSignedBatchRoundTrip(t *testing.T) {
	const classes = 3
	rng := rand.New(rand.NewSource(9))
	catCol, cls, idx := randomBatch(rng, 400, 7, classes, false)
	numCol, _, _ := randomBatch(rng, 400, 0, classes, true)
	for i := 0; i < len(numCol); i += 9 {
		numCol[i] = math.NaN()
	}
	schema := data.MustSchema([]data.Attribute{
		{Name: "x", Kind: data.Numeric},
		{Name: "c", Kind: data.Categorical, Cardinality: 7},
	}, classes)
	ch := data.NewChunk(2, len(numCol))
	for r := range numCol {
		ch.AppendTuple(data.Tuple{Values: []float64{numCol[r], catCol[r]}, Class: int(cls[r])})
	}
	for _, rows := range [][]int32{nil, idx} {
		label := fmt.Sprintf("subset=%v", rows != nil)
		avc := NewCatAVC(7, classes)
		avc.AddBatch(catCol, cls, rows, 1)
		avc.AddBatch(catCol, cls, rows, -1)
		requireSameCatAVC(t, label, avc, NewCatAVC(7, classes))

		nm := NewNumMoments(classes)
		nm.AddBatch(numCol, cls, rows, 1)
		nm.AddBatch(numCol, cls, rows, -1)
		requireSameMoments(t, label, nm, NewNumMoments(classes))

		m := NewMoments(schema)
		m.AddChunk(ch, rows, 1)
		m.AddChunk(ch, rows, -1)
		requireSameMomentsGroup(t, label, m, NewMoments(schema))
	}
}

// BenchmarkAVCBatch compares the batched count kernels against the
// per-row Add loops they replace.
func BenchmarkAVCBatch(b *testing.B) {
	const n, card, classes = 4096, 16, 4
	rng := rand.New(rand.NewSource(1))
	catCol, cls, _ := randomBatch(rng, n, card, classes, false)
	numCol, _, _ := randomBatch(rng, n, 0, classes, true)

	b.Run("CatAVC/loop", func(b *testing.B) {
		avc := NewCatAVC(card, classes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r, v := range catCol {
				avc.Add(int(v), int(cls[r]), 1)
			}
		}
	})
	b.Run("CatAVC/batch", func(b *testing.B) {
		avc := NewCatAVC(card, classes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			avc.AddBatch(catCol, cls, nil, 1)
		}
	})
	b.Run("NumMoments/loop", func(b *testing.B) {
		m := NewNumMoments(classes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r, v := range numCol {
				m.Add(v, int(cls[r]), 1)
			}
		}
	})
	b.Run("NumMoments/batch", func(b *testing.B) {
		m := NewNumMoments(classes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.AddBatch(numCol, cls, nil, 1)
		}
	})
}
