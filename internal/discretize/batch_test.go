package discretize

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// specialValues stress the batch kernels' cell rule: NaN and everything
// beyond the last boundary belong in the top cell, and a bucket position
// computed from ±Inf or ±1e300 does not fit an int.
var specialValues = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300}

// TestHistogramAddBatchEquivalence: AddBatch must equal a loop of Add on
// random boundary sets and value streams. Values deliberately include
// exact boundary hits (atom cells), near misses, sorted runs (the
// seeded-cell fast path), and NaN, ±Inf and ±1e300, plus the
// empty-boundary histogram and a boundary set whose span overflows.
func TestHistogramAddBatchEquivalence(t *testing.T) {
	const classes = 3
	for trial := 0; trial < 64; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		// Boundary counts straddle bucketIndexMinBoundaries so both the
		// indexed and the fallback search run; the tight cluster near 100
		// piles many boundaries into one index bucket.
		nb := rng.Intn(40) // 0 boundaries: single-cell histogram
		bset := map[float64]bool{}
		for len(bset) < nb {
			if rng.Intn(2) == 0 {
				bset[float64(rng.Intn(40))] = true
			} else {
				bset[100+float64(rng.Intn(64))/1024] = true
			}
		}
		boundaries := make([]float64, 0, nb)
		for v := range bset {
			boundaries = append(boundaries, v)
		}
		if trial >= 60 {
			// max-min overflows: no bucket index, seeded search only.
			boundaries = append(boundaries, -math.MaxFloat64, math.MaxFloat64)
			nb += 2
		}
		sort.Float64s(boundaries)

		n := 1 + rng.Intn(400)
		col := make([]float64, n)
		cls := make([]int32, n)
		for i := range col {
			switch rng.Intn(3) {
			case 0: // exact boundary hit when possible
				if nb > 0 {
					col[i] = boundaries[rng.Intn(nb)]
				} else {
					col[i] = float64(rng.Intn(40))
				}
			case 1:
				col[i] = float64(rng.Intn(40)) + 0.5
			case 2:
				col[i] = 100 + float64(rng.Intn(80))/1024
			default:
				col[i] = float64(rng.Intn(60)) - 10
			}
			if rng.Intn(8) == 0 {
				col[i] = specialValues[rng.Intn(len(specialValues))]
			}
			cls[i] = int32(rng.Intn(classes))
		}
		if trial%3 == 0 {
			// Sorted runs keep consecutive values in one cell, which is
			// what the previous-cell seed optimizes for.
			sort.Float64s(col)
		}
		var idx []int32
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				idx = append(idx, int32(i))
			}
		}

		batch := NewHistogram(boundaries, classes)
		loop := NewHistogram(boundaries, classes)
		batch.AddBatch(col, cls, nil, 1)
		for r, v := range col {
			loop.Add(v, int(cls[r]), 1)
		}
		requireSameHistogram(t, fmt.Sprintf("trial %d all-rows", trial), batch, loop)

		batch = NewHistogram(boundaries, classes)
		loop = NewHistogram(boundaries, classes)
		batch.AddBatch(col, cls, idx, 1)
		for _, r := range idx {
			loop.Add(col[r], int(cls[r]), 1)
		}
		requireSameHistogram(t, fmt.Sprintf("trial %d subset", trial), batch, loop)
	}
}

func requireSameHistogram(t *testing.T, label string, a, b *Histogram) {
	t.Helper()
	for c := range a.Counts {
		for j := range a.Counts[c] {
			if a.Counts[c][j] != b.Counts[c][j] {
				t.Fatalf("%s: cell %d class %d: %d want %d", label, c, j, a.Counts[c][j], b.Counts[c][j])
			}
		}
	}
}

// TestCellOfMatchesManualSearch pins the inlined binary search to the
// sort.SearchFloat64s-based CellOf across boundary hits and misses, NaN
// and the infinities.
func TestCellOfMatchesManualSearch(t *testing.T) {
	h := NewHistogram([]float64{1, 3, 7, 7.5}, 2)
	for v := -2.0; v <= 10; v += 0.25 {
		if got, want := cellOf(h.Boundaries, v), h.CellOf(v); got != want {
			t.Fatalf("cellOf(%v) = %d, CellOf = %d", v, got, want)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, want := cellOf(h.Boundaries, v), h.CellOf(v); got != want {
			t.Fatalf("cellOf(%v) = %d, CellOf = %d", v, got, want)
		}
	}
	empty := NewHistogram(nil, 2)
	if got := cellOf(empty.Boundaries, 5); got != empty.CellOf(5) {
		t.Fatalf("empty boundaries: cellOf = %d, CellOf = %d", got, empty.CellOf(5))
	}
}

// TestHistogramSignedRoundTrip: adding a batch at weight +1 and removing
// it at -1 must leave every count at zero, on every kernel path (no,
// one, indexed, crowded and overflowing boundary sets) and with NaN and
// out-of-range values among the rows.
func TestHistogramSignedRoundTrip(t *testing.T) {
	sets := [][]float64{
		nil,
		{1},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{1, 1.001, 1.002, 50},
		{-math.MaxFloat64, 0, math.MaxFloat64},
	}
	rng := rand.New(rand.NewSource(5))
	col := make([]float64, 300)
	cls := make([]int32, len(col))
	var idx []int32
	for i := range col {
		col[i] = float64(rng.Intn(120))/10 - 1
		if i%7 == 0 {
			col[i] = specialValues[(i/7)%len(specialValues)]
		}
		cls[i] = int32(rng.Intn(2))
		if i%3 == 0 {
			idx = append(idx, int32(i))
		}
	}
	for _, b := range sets {
		for _, rows := range [][]int32{nil, idx} {
			h := NewHistogram(b, 2)
			h.AddBatch(col, cls, rows, 1)
			h.AddBatch(col, cls, rows, -1)
			for c, row := range h.Counts {
				for j, v := range row {
					if v != 0 {
						t.Fatalf("boundaries %v, subset %v: cell %d class %d = %d after +1/-1",
							b, rows != nil, c, j, v)
					}
				}
			}
		}
	}
}

func BenchmarkHistogramBatch(b *testing.B) {
	const n, classes = 4096, 4
	boundaries := make([]float64, 64)
	for i := range boundaries {
		boundaries[i] = float64(i * 3)
	}
	rng := rand.New(rand.NewSource(1))
	col := make([]float64, n)
	cls := make([]int32, n)
	for i := range col {
		col[i] = float64(rng.Intn(200))
		cls[i] = int32(rng.Intn(classes))
	}
	b.Run("loop", func(b *testing.B) {
		h := NewHistogram(boundaries, classes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r, v := range col {
				h.Add(v, int(cls[r]), 1)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		h := NewHistogram(boundaries, classes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.AddBatch(col, cls, nil, 1)
		}
	})

	// The cleanup scan's reality: few boundaries, continuous values —
	// every per-row comparison against a boundary is an unpredictable
	// branch unless the kernel is branch-free.
	fb := []float64{38000, 62000, 95000, 123000}
	fcol := make([]float64, n)
	for i := range fcol {
		fcol[i] = 20000 + 130000*rng.Float64()
	}
	b.Run("batch-continuous", func(b *testing.B) {
		h := NewHistogram(fb, classes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.AddBatch(fcol, cls, nil, 1)
		}
	})
}
