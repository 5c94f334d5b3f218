package hull

import (
	"math"
	"math/rand"
	"testing"

	"github.com/boatml/boat/internal/split"
)

// enumerate all integer stamp-point paths between lo and hi is infeasible;
// instead we check the bound against many random monotone stamp sequences
// whose endpoints define the rectangle.
func TestLowerBoundHoldsForRandomStampSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		k := 2 + rng.Intn(3)
		totals := make([]int64, k)
		lo := make([]int64, k)
		hi := make([]int64, k)
		for i := 0; i < k; i++ {
			lo[i] = int64(rng.Intn(20))
			hi[i] = lo[i] + int64(rng.Intn(30))
			totals[i] = hi[i] + int64(rng.Intn(20))
		}
		for _, crit := range []split.Criterion{split.Gini, split.Entropy} {
			lb := LowerBound(crit, lo, hi, totals)
			// Generate random stamp points inside the rectangle and check
			// none beats the bound.
			for s := 0; s < 30; s++ {
				p := make([]int64, k)
				for i := 0; i < k; i++ {
					p[i] = lo[i] + rng.Int63n(hi[i]-lo[i]+1)
				}
				q := crit.QualityFromLeft(p, totals, nil)
				if q < lb-1e-12 {
					t.Fatalf("trial %d %v: point %v quality %v < bound %v (lo=%v hi=%v totals=%v)",
						trial, crit, p, q, lb, lo, hi, totals)
				}
			}
		}
	}
}

func TestLowerBoundTightAtCorners(t *testing.T) {
	// When lo == hi the bound equals the exact quality of that point.
	totals := []int64{50, 50}
	p := []int64{20, 5}
	lb := LowerBound(split.Gini, p, p, totals)
	q := split.Gini.QualityFromLeft(p, totals, nil)
	if lb != q {
		t.Errorf("degenerate rectangle bound %v != exact %v", lb, q)
	}
}

func TestLowerBoundExactOverSmallRectangle(t *testing.T) {
	// Exhaustively verify the bound over every integer point of small
	// rectangles (the property Lemma 3.1 asserts for concave imp).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		totals := []int64{int64(10 + rng.Intn(30)), int64(10 + rng.Intn(30))}
		lo := []int64{int64(rng.Intn(5)), int64(rng.Intn(5))}
		hi := []int64{lo[0] + int64(rng.Intn(6)), hi1(lo[1], rng)}
		if hi[0] > totals[0] {
			hi[0] = totals[0]
		}
		if hi[1] > totals[1] {
			hi[1] = totals[1]
		}
		lb := LowerBound(split.Gini, lo, hi, totals)
		for a := lo[0]; a <= hi[0]; a++ {
			for b := lo[1]; b <= hi[1]; b++ {
				q := split.Gini.QualityFromLeft([]int64{a, b}, totals, nil)
				if q < lb-1e-12 {
					t.Fatalf("point (%d,%d) q=%v < lb=%v (lo=%v hi=%v totals=%v)",
						a, b, q, lb, lo, hi, totals)
				}
			}
		}
	}
}

func hi1(lo int64, rng *rand.Rand) int64 { return lo + int64(rng.Intn(6)) }

func TestLowerBoundEmptySidesAreInf(t *testing.T) {
	totals := []int64{10, 10}
	lb := LowerBound(split.Gini, []int64{0, 0}, []int64{0, 0}, totals)
	if !math.IsInf(lb, 1) {
		t.Errorf("all-zero rectangle bound = %v, want +Inf (empty left side)", lb)
	}
	lb = LowerBound(split.Gini, totals, totals, totals)
	if !math.IsInf(lb, 1) {
		t.Errorf("full rectangle bound = %v, want +Inf (empty right side)", lb)
	}
}

func TestLowerBoundTooManyClasses(t *testing.T) {
	k := MaxClasses + 1
	v := make([]int64, k)
	for i := range v {
		v[i] = 1
	}
	if lb := LowerBound(split.Gini, v, v, v); !math.IsInf(lb, -1) {
		t.Errorf("bound with %d classes = %v, want -Inf (conservative)", k, lb)
	}
}

// TestLowerBoundNoAllocs: the corner enumeration runs on the stack, at 2
// and at MaxClasses classes, since verification, discretization and the
// in-memory split search call the bound once per bucket.
func TestLowerBoundNoAllocs(t *testing.T) {
	for _, k := range []int{2, MaxClasses} {
		lo, hi, totals := make([]int64, k), make([]int64, k), make([]int64, k)
		for i := range totals {
			lo[i], hi[i], totals[i] = int64(i), int64(2*i+1), int64(3*i+5)
		}
		for _, crit := range []split.Criterion{split.Gini, split.Entropy} {
			if n := testing.AllocsPerRun(10, func() { LowerBound(crit, lo, hi, totals) }); n != 0 {
				t.Errorf("%v, %d classes: %v allocations per call, want 0", crit, k, n)
			}
		}
	}
}

// TestCorners: the corner count the in-memory split search weighs against
// scanning a bucket is 2 to the number of classes whose count changes,
// and 0 above MaxClasses, where LowerBound evaluates no corner.
func TestCorners(t *testing.T) {
	for _, c := range []struct {
		lo, hi []int64
		want   int
	}{
		{[]int64{3, 4}, []int64{3, 4}, 1},
		{[]int64{3, 4}, []int64{5, 4}, 2},
		{[]int64{0, 0, 0}, []int64{1, 2, 3}, 8},
		{make([]int64, MaxClasses), make([]int64, MaxClasses), 1},
		{make([]int64, MaxClasses+1), make([]int64, MaxClasses+1), 0},
	} {
		if got := Corners(c.lo, c.hi); got != c.want {
			t.Errorf("Corners(%v, %v) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
	lo, hi := make([]int64, MaxClasses), make([]int64, MaxClasses)
	for i := range hi {
		hi[i] = 1
	}
	if got := Corners(lo, hi); got != 1<<MaxClasses {
		t.Errorf("Corners over %d varying classes = %d, want %d", MaxClasses, got, 1<<MaxClasses)
	}
}
