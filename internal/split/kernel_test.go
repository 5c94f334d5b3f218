package split

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/boatml/boat/internal/data"
)

// bestNumericSplitOracle is the per-candidate evaluation BestNumericSplit
// fuses: every candidate pays QualityFromLeft, a Split value and a
// Better call. The fused kernel must return exactly its result.
func bestNumericSplitOracle(crit Criterion, attr int, avc *NumericAVC, classTotals []int64) Split {
	return bestCutOracle(crit, attr, avc, classTotals, 0)
}

// bestCutOracle is bestNumericSplitOracle restricted to the candidates
// from index from on: the counts of the values below it only seed the
// left side.
func bestCutOracle(crit Criterion, attr int, avc *NumericAVC, classTotals []int64, from int) Split {
	k := len(classTotals)
	left := make([]int64, k)
	scratch := make([]int64, k)
	best := NoSplit()
	for i := 0; i < len(avc.Values)-1; i++ {
		for j, c := range avc.Counts[i] {
			left[j] += c
		}
		if i < from {
			continue
		}
		q := crit.QualityFromLeft(left, classTotals, scratch)
		cand := Split{
			Found:     true,
			Attr:      attr,
			Kind:      data.Numeric,
			Threshold: avc.Values[i],
			Quality:   q,
		}
		if cand.Better(best) {
			best = cand
		}
	}
	return best
}

// randomKernelAVC draws an AVC-set over k classes shaped to reach the
// kernel's edge cases: a single value, rows and whole classes with zero
// counts (empty sides, hence +Inf candidates), equal class totals, small
// counts that make quality ties common, and a NaN last value.
func randomKernelAVC(rng *rand.Rand, k int) (*NumericAVC, []int64) {
	nv := 1 + rng.Intn(30)
	if rng.Intn(10) == 0 {
		nv = 1
	}
	maxCount := []int{1, 2, 3, 10, 1000}[rng.Intn(5)]
	zeroClass := -1
	if rng.Intn(3) == 0 {
		zeroClass = rng.Intn(k)
	}
	avc := &NumericAVC{}
	v := math.Round(rng.NormFloat64() * 10)
	for i := 0; i < nv; i++ {
		row := make([]int64, k)
		if rng.Intn(6) != 0 { // else an all-zero row
			for j := range row {
				if j != zeroClass {
					row[j] = int64(rng.Intn(maxCount + 1))
				}
			}
		}
		avc.Values = append(avc.Values, v)
		avc.Counts = append(avc.Counts, row)
		v += float64(1 + rng.Intn(3))
	}
	if rng.Intn(4) == 0 {
		avc.Values[nv-1] = math.NaN()
	}
	totals := make([]int64, k)
	for _, row := range avc.Counts {
		for j, c := range row {
			totals[j] += c
		}
	}
	if rng.Intn(3) == 0 {
		// Equal totals: top every class up to the largest total on a
		// random row.
		var top int64
		for _, c := range totals {
			top = max(top, c)
		}
		for j := range totals {
			avc.Counts[rng.Intn(nv)][j] += top - totals[j]
			totals[j] = top
		}
	}
	return avc, totals
}

// TestBestNumericSplitMatchesOracle pins the fused kernel to the
// per-candidate oracle bit for bit: same Found, same threshold, same
// Quality bit pattern, for gini and entropy at 1 to 10 classes (above 8
// the kernel takes its heap-allocated path). Each AVC-set is also cut at
// a random prefix, as the in-memory builder scans one bucket: BestCut
// from the prefix's cumulative counts must return the oracle's best over
// the remaining candidates and leave left at the last candidate's stamp
// point.
func TestBestNumericSplitMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	same := func(got, want Split) bool {
		return got.Found == want.Found &&
			math.Float64bits(got.Threshold) == math.Float64bits(want.Threshold) &&
			math.Float64bits(got.Quality) == math.Float64bits(want.Quality) &&
			(!got.Found || got.Attr == want.Attr && got.Kind == want.Kind)
	}
	for _, crit := range []Criterion{Gini, Entropy} {
		for k := 1; k <= 10; k++ {
			for trial := 0; trial < 400; trial++ {
				avc, totals := randomKernelAVC(rng, k)
				got := BestNumericSplit(crit, 3, avc, totals)
				want := bestNumericSplitOracle(crit, 3, avc, totals)
				if !same(got, want) {
					t.Fatalf("%v k=%d trial %d: kernel %+v, oracle %+v\nvalues %v\ncounts %v\ntotals %v",
						crit, k, trial, got, want, avc.Values, avc.Counts, totals)
				}
				last := len(avc.Values) - 1
				if last < 1 {
					continue
				}
				from := rng.Intn(last)
				left := make([]int64, k)
				for _, row := range avc.Counts[:from] {
					for j, c := range row {
						left[j] += c
					}
				}
				i, q := BestCut(crit, avc.Values[from:last], avc.Counts[from:], left, totals)
				got = Split{Found: true, Attr: 3, Kind: data.Numeric, Threshold: avc.Values[from+i], Quality: q}
				want = bestCutOracle(crit, 3, avc, totals, from)
				if !same(got, want) {
					t.Fatalf("%v k=%d trial %d from %d: kernel %+v, oracle %+v\nvalues %v\ncounts %v\ntotals %v",
						crit, k, trial, from, got, want, avc.Values, avc.Counts, totals)
				}
				stamp := make([]int64, k)
				for _, row := range avc.Counts[:last] {
					for j, c := range row {
						stamp[j] += c
					}
				}
				if !slices.Equal(left, stamp) {
					t.Fatalf("%v k=%d trial %d from %d: left ends at %v, want %v", crit, k, trial, from, left, stamp)
				}
			}
		}
	}
}

// TestBestNumericSplitNoAllocs: up to 8 classes the kernel keeps its
// running counts on the stack.
func TestBestNumericSplitNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	avc, totals := randomKernelAVC(rng, 8)
	for len(avc.Values) < 2 {
		avc, totals = randomKernelAVC(rng, 8)
	}
	for _, crit := range []Criterion{Gini, Entropy} {
		if n := testing.AllocsPerRun(100, func() { BestNumericSplit(crit, 0, avc, totals) }); n != 0 {
			t.Errorf("%v: %v allocations per call, want 0", crit, n)
		}
	}
}

// benchAVC is a 2-class AVC-set of n distinct values with a noisy
// threshold signal, the shape of a grow-fig4 node.
func benchAVC(n int) (*NumericAVC, []int64) {
	rng := rand.New(rand.NewSource(int64(n)))
	avc := &NumericAVC{Values: make([]float64, n), Counts: make([][]int64, n)}
	backing := make([]int64, 2*n)
	totals := make([]int64, 2)
	for i := range avc.Values {
		avc.Values[i] = float64(i)
		row := backing[2*i : 2*i+2]
		class := 0
		if (i < n/3) != (rng.Intn(20) == 0) {
			class = 1
		}
		row[class] = int64(1 + rng.Intn(3))
		totals[class] += row[class]
		avc.Counts[i] = row
	}
	return avc, totals
}

// BenchmarkBestNumericSplit times the numeric split search on AVC-sets of
// a leaf-sized (1,250) and a frontier-sized (40,000) family, kernel
// against the per-candidate oracle.
func BenchmarkBestNumericSplit(b *testing.B) {
	for _, n := range []int{1250, 40000} {
		avc, totals := benchAVC(n)
		for _, crit := range []Criterion{Gini, Entropy} {
			b.Run(fmt.Sprintf("%v/values=%d/kernel", crit, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					BestNumericSplit(crit, 0, avc, totals)
				}
			})
			b.Run(fmt.Sprintf("%v/values=%d/oracle", crit, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bestNumericSplitOracle(crit, 0, avc, totals)
				}
			})
		}
	}
}
