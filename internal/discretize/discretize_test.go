package discretize

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/boatml/boat/internal/hull"
	"github.com/boatml/boat/internal/split"
)

// rampAVC builds an AVC-set where class 0 dominates below mid and class 1
// above — a single sharp impurity minimum at mid.
func rampAVC(nv int, mid float64) (*split.NumericAVC, []int64) {
	avc := &split.NumericAVC{}
	totals := []int64{0, 0}
	for i := 0; i < nv; i++ {
		v := float64(i)
		row := []int64{0, 0}
		if v <= mid {
			row[0] = 10
			row[1] = 1
		} else {
			row[0] = 1
			row[1] = 10
		}
		avc.Values = append(avc.Values, v)
		avc.Counts = append(avc.Counts, row)
		totals[0] += row[0]
		totals[1] += row[1]
	}
	return avc, totals
}

func bestQuality(avc *split.NumericAVC, totals []int64) float64 {
	return split.BestNumericSplit(split.Gini, 0, avc, totals).Quality
}

func TestBoundariesSortedDistinctSubset(t *testing.T) {
	avc, totals := rampAVC(60, 30)
	est := bestQuality(avc, totals)
	bounds := Boundaries(split.Gini, avc, totals, est, 32)
	if len(bounds) == 0 {
		t.Fatal("no boundaries")
	}
	values := map[float64]bool{}
	for _, v := range avc.Values {
		values[v] = true
	}
	for i, b := range bounds {
		if !values[b] {
			t.Errorf("boundary %v is not an observed value", b)
		}
		if i > 0 && bounds[i-1] >= b {
			t.Errorf("boundaries not strictly increasing at %d", i)
		}
	}
	if !sort.Float64sAreSorted(bounds) {
		t.Error("boundaries unsorted")
	}
}

func TestBoundariesDenseNearMinimum(t *testing.T) {
	avc, totals := rampAVC(100, 50)
	est := bestQuality(avc, totals)
	bounds := Boundaries(split.Gini, avc, totals, est, 64)
	// The region right around the minimum must be covered by nearby
	// boundaries: at least one boundary within distance 2 of the minimum.
	closest := math.Inf(1)
	for _, b := range bounds {
		if d := math.Abs(b - 50); d < closest {
			closest = d
		}
	}
	if closest > 2 {
		t.Errorf("closest boundary to the impurity minimum is %v away (bounds=%v)", closest, bounds)
	}
}

func TestBoundariesDegenerate(t *testing.T) {
	// Single value: the value itself becomes the closing boundary so the
	// unbounded cells stay empty on the build data.
	avc := &split.NumericAVC{Values: []float64{5}, Counts: [][]int64{{3, 3}}}
	if got := Boundaries(split.Gini, avc, []int64{3, 3}, 0.1, 8); len(got) != 1 || got[0] != 5 {
		t.Errorf("single-value AVC boundaries = %v, want [5]", got)
	}
	// Empty AVC.
	if got := Boundaries(split.Gini, &split.NumericAVC{}, []int64{0, 0}, 0.1, 8); got != nil {
		t.Errorf("empty AVC boundaries = %v", got)
	}
}

// TestBoundariesSkipNaN: the AVC's NaN entry (missing values, last in the
// canonical order) is no split point and must never become a boundary; as
// the closing boundary it left the list unsorted, so the binary searches
// and the batch kernels disagreed on every cell above it.
func TestBoundariesSkipNaN(t *testing.T) {
	avc, totals := rampAVC(200, 100)
	estMin := bestQuality(avc, totals)
	avc.Values = append(avc.Values, math.NaN())
	avc.Counts = append(avc.Counts, []int64{4, 4})
	totals[0] += 4
	totals[1] += 4
	// With no impurity estimate every value qualifies, and budget 1 thins
	// the 200 candidates through the fallback selection.
	for _, tc := range []struct {
		estMin float64
		budget int
	}{{estMin, 8}, {math.Inf(1), 1}} {
		got := Boundaries(split.Gini, avc, totals, tc.estMin, tc.budget)
		if len(got) == 0 || got[len(got)-1] != 199 || !sort.Float64sAreSorted(got) {
			t.Errorf("budget %d: boundaries %v, want sorted and closed by 199", tc.budget, got)
		}
		if len(got) > tc.budget*HardCapFactor {
			t.Errorf("budget %d: %d boundaries, the fallback did not run", tc.budget, len(got))
		}
		for _, b := range got {
			if math.IsNaN(b) {
				t.Fatalf("budget %d: NaN boundary in %v", tc.budget, got)
			}
		}
	}
	nanOnly := &split.NumericAVC{Values: []float64{math.NaN()}, Counts: [][]int64{{2, 1}}}
	if got := Boundaries(split.Gini, nanOnly, []int64{2, 1}, 0.1, 8); got != nil {
		t.Errorf("all-NaN AVC boundaries = %v, want none", got)
	}
}

func TestBoundariesGuaranteeVerifiableBuckets(t *testing.T) {
	// Core soundness property the BOAT verification relies on: with the
	// produced boundaries, every non-empty interior cell's corner lower
	// bound stays above the estimated minimum (here the exact minimum),
	// and the atoms cover the rest exactly — so no false alarms on the
	// very data the discretization was built from.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		avc := &split.NumericAVC{}
		totals := []int64{0, 0}
		nv := 30 + rng.Intn(40)
		for i := 0; i < nv; i++ {
			row := []int64{int64(rng.Intn(10)), int64(rng.Intn(10))}
			if row[0]+row[1] == 0 {
				row[0] = 1
			}
			avc.Values = append(avc.Values, float64(i))
			avc.Counts = append(avc.Counts, row)
			totals[0] += row[0]
			totals[1] += row[1]
		}
		best := split.BestNumericSplit(split.Gini, 0, avc, totals)
		if !best.Found {
			continue
		}
		bounds := Boundaries(split.Gini, avc, totals, best.Quality, 0)
		h := NewHistogram(bounds, 2)
		for i, v := range avc.Values {
			for c, cnt := range avc.Counts[i] {
				h.Add(v, c, cnt)
			}
		}
		stamps := h.StampPoints()
		for cell := 0; cell < h.NumCells(); cell++ {
			if h.IsAtom(cell) || h.CellTotal(cell) == 0 {
				continue
			}
			lb := hull.LowerBound(split.Gini, stamps[cell], stamps[cell+1], totals)
			if lb < best.Quality {
				t.Fatalf("trial %d: interior cell %d bound %v below exact min %v",
					trial, cell, lb, best.Quality)
			}
		}
	}
}

func TestInsertBoundaries(t *testing.T) {
	got := InsertBoundaries([]float64{1, 5, 9}, 5, 3, 9, 12)
	want := []float64{1, 3, 5, 9, 12}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if got := InsertBoundaries(nil, 7); len(got) != 1 || got[0] != 7 {
		t.Errorf("insert into nil: %v", got)
	}
}

func TestHistogramCells(t *testing.T) {
	h := NewHistogram([]float64{10, 20}, 2)
	if h.NumCells() != 5 {
		t.Fatalf("cells = %d, want 5", h.NumCells())
	}
	cases := []struct {
		v    float64
		cell int
	}{
		{5, 0}, {10, 1}, {15, 2}, {20, 3}, {25, 4},
	}
	for _, tc := range cases {
		if got := h.CellOf(tc.v); got != tc.cell {
			t.Errorf("CellOf(%v) = %d, want %d", tc.v, got, tc.cell)
		}
	}
	if !h.IsAtom(1) || h.IsAtom(2) {
		t.Error("atom detection broken")
	}
	if h.AtomValue(1) != 10 || h.AtomValue(3) != 20 {
		t.Error("atom values wrong")
	}
	if !math.IsInf(h.CellLowerEdge(0), -1) || h.CellLowerEdge(2) != 10 {
		t.Error("lower edges wrong")
	}
	if !math.IsInf(h.CellUpperEdge(4), 1) || h.CellUpperEdge(2) != 20 {
		t.Error("upper edges wrong")
	}
	if h.CellLowerEdge(1) != 10 || h.CellUpperEdge(1) != 10 {
		t.Error("atom edges wrong")
	}
}

func TestHistogramStampPoints(t *testing.T) {
	h := NewHistogram([]float64{10}, 2)
	h.Add(5, 0, 3)  // cell 0
	h.Add(10, 1, 2) // atom cell 1
	h.Add(11, 0, 1) // cell 2
	stamps := h.StampPoints()
	if len(stamps) != 4 {
		t.Fatalf("stamps len = %d", len(stamps))
	}
	want := [][]int64{{0, 0}, {3, 0}, {3, 2}, {4, 2}}
	for i := range want {
		for c := range want[i] {
			if stamps[i][c] != want[i][c] {
				t.Fatalf("stamps = %v, want %v", stamps, want)
			}
		}
	}
	// The stamp after an atom is the exact partition of X <= boundary.
	if stamps[2][0] != 3 || stamps[2][1] != 2 {
		t.Error("atom stamp wrong")
	}
}

func TestHistogramNegativeAndReset(t *testing.T) {
	h := NewHistogram([]float64{10}, 2)
	h.Add(5, 0, 1)
	h.Add(5, 0, -1)
	if h.CellTotal(0) != 0 {
		t.Error("negative add did not cancel")
	}
	h.Add(15, 1, 4)
	h.Reset()
	for c := 0; c < h.NumCells(); c++ {
		if h.CellTotal(c) != 0 {
			t.Error("reset left counts")
		}
	}
	if len(h.Boundaries) != 1 {
		t.Error("reset dropped boundaries")
	}
}

func TestHistogramNoBoundaries(t *testing.T) {
	h := NewHistogram(nil, 3)
	if h.NumCells() != 1 {
		t.Fatalf("cells = %d, want 1", h.NumCells())
	}
	h.Add(123, 2, 1)
	if h.CellTotal(0) != 1 {
		t.Error("single-cell histogram broken")
	}
	stamps := h.StampPoints()
	if len(stamps) != 2 || stamps[1][2] != 1 {
		t.Errorf("stamps = %v", stamps)
	}
}
