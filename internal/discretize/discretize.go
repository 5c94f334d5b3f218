// Package discretize builds the per-node, per-attribute discretizations of
// Section 3.4 of the paper and the cell-count histograms maintained during
// the cleanup scan.
//
// A discretization is a sorted list of boundary values taken from the
// node's sample family. The histogram tracks, per class, 2B+1 cells for B
// boundaries: an "atom" cell for each boundary value itself and an open
// "interior" cell for each gap (including the two unbounded ends).
// Cumulative counts at the cell edges are exactly the stamp points of
// Section 3.4, so during verification
//
//   - atom cells are evaluated exactly (the stamp point at a boundary is
//     the true partition of the split at that value),
//   - empty interior cells contain no candidate split points and are
//     skipped,
//   - non-empty interior cells are lower-bounded by the 2^k corner bound
//     of Lemma 3.1 over the rectangle spanned by their edge stamp points.
//
// Boundary selection follows the paper's adaptive procedure: walk the
// sample's attribute values in ascending order and extend the current
// bucket while its corner lower bound stays well above the node's
// estimated minimum impurity; where the bound approaches the minimum the
// buckets degenerate to single values, whose atoms are then verified
// exactly — "many buckets in regions where the impurity is close to the
// overall minimum, few buckets elsewhere".
package discretize

import (
	"math"
	"sort"

	"github.com/boatml/boat/internal/hull"
	"github.com/boatml/boat/internal/split"
)

// DefaultBudget is the default soft bound on boundaries per
// (node, attribute). The adaptive walk may exceed it by up to
// HardCapFactor times before the quality-ordered fallback thins the
// selection: regions where the impurity curve itself sits inside the band
// can only be protected by atom cells (which verification evaluates
// exactly, with zero false-alarm risk), so capping them too aggressively
// trades memory for spurious rebuilds.
const DefaultBudget = 128

// HardCapFactor bounds how far beyond the budget the adaptive walk may
// go before boundaries are thinned.
const HardCapFactor = 32

// BandFraction controls how much headroom above the estimated minimum
// impurity a bucket's lower bound must keep: the bucket is closed once its
// bound drops under estMin + band, with
// band = BandFraction*(nodeImpurity-estMin) + BandFloor*nodeImpurity.
// The band absorbs the sampling noise between the sample's impurity
// landscape and the full data's; the floor keeps it meaningful at deep
// noisy nodes where the gap nodeImpurity-estMin vanishes.
const (
	BandFraction = 0.25
	BandFloor    = 0.02
)

// Boundaries computes the discretization boundaries for one numeric
// attribute from the node's sample family AVC-set. estMin is the node's
// estimated minimum impurity over all attributes (the sample tree's best
// split quality); budget <= 0 selects DefaultBudget. The AVC's NaN entry
// (last in the canonical order) is never a boundary: NaN is no split
// point, and the histogram counts NaN in its top cell, above every
// boundary, the side every router sends it to.
func Boundaries(crit split.Criterion, avc *split.NumericAVC, classTotals []int64,
	estMin float64, budget int) []float64 {
	if budget <= 0 {
		budget = DefaultBudget
	}
	nv := len(avc.Values)
	if nv > 0 && math.IsNaN(avc.Values[nv-1]) {
		nv--
		avc = &split.NumericAVC{Values: avc.Values[:nv], Counts: avc.Counts[:nv]}
	}
	if nv == 0 {
		return nil
	}
	k := len(classTotals)
	nodeImp := crit.Impurity(classTotals)
	band := BandFloor * nodeImp
	if nodeImp > estMin && !math.IsInf(estMin, 1) {
		band += BandFraction * (nodeImp - estMin)
	}
	threshold := estMin + band
	if math.IsInf(estMin, 1) {
		threshold = nodeImp // no estimate: everything is dangerous
	}

	// Adaptive walk: close the current bucket whenever extending it would
	// drag its corner lower bound to the threshold or below. The largest
	// observed value always closes the discretization: its atom is
	// harmless during verification (splitting at the maximum is illegal),
	// and it keeps the unbounded tail cell — whose verification rectangle
	// extends all the way to the class totals — empty on the data the
	// boundaries were built from.
	cum := make([]int64, k)      // stamp after value i
	bucketLo := make([]int64, k) // stamp at the last boundary
	var out []float64
	for i := 0; i < nv; i++ {
		for j, c := range avc.Counts[i] {
			cum[j] += c
		}
		if i == nv-1 {
			out = append(out, avc.Values[i])
			break
		}
		lb := hull.LowerBound(crit, bucketLo, cum, classTotals)
		if lb <= threshold {
			out = append(out, avc.Values[i])
			copy(bucketLo, cum)
		}
	}
	if len(out) <= budget*HardCapFactor {
		return out
	}
	// Fallback: adaptive selection exploded (a near-flat impurity
	// landscape over a huge domain); thin to the most dangerous
	// candidates by impurity plus an equi-depth skeleton. Looser bounds
	// may cause spurious rebuilds but never a wrong tree.
	return fallbackBoundaries(crit, avc, classTotals, budget*HardCapFactor)
}

func fallbackBoundaries(crit split.Criterion, avc *split.NumericAVC, classTotals []int64, budget int) []float64 {
	nv := len(avc.Values)
	k := len(classTotals)
	left := make([]int64, k)
	scratch := make([]int64, k)
	quality := make([]float64, nv-1)
	for i := 0; i < nv-1; i++ {
		for j, c := range avc.Counts[i] {
			left[j] += c
		}
		quality[i] = crit.QualityFromLeft(left, classTotals, scratch)
	}
	selected := make(map[int]bool)
	order := make([]int, nv-1)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if quality[order[a]] != quality[order[b]] {
			return quality[order[a]] < quality[order[b]]
		}
		return order[a] < order[b]
	})
	fine := budget / 2
	if fine > len(order) {
		fine = len(order)
	}
	for _, i := range order[:fine] {
		selected[i] = true
	}
	var total int64
	for _, c := range classTotals {
		total += c
	}
	coarse := budget - fine
	if coarse > 0 && total > 0 {
		step := total / int64(coarse+1)
		if step < 1 {
			step = 1
		}
		var cum, next int64 = 0, step
		for i := 0; i < nv-1; i++ {
			for _, c := range avc.Counts[i] {
				cum += c
			}
			if cum >= next {
				selected[i] = true
				next += step
			}
		}
	}
	selected[nv-1] = true // always close with the maximum observed value
	idxs := make([]int, 0, len(selected))
	for i := range selected {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]float64, len(idxs))
	for j, i := range idxs {
		out[j] = avc.Values[i]
	}
	return out
}

// InsertBoundaries returns boundaries with the extra values merged in
// (sorted, deduplicated). Used to force the confidence-interval endpoints
// of the coarse splitting attribute to be boundaries, so no cell straddles
// the interval.
func InsertBoundaries(boundaries []float64, extra ...float64) []float64 {
	out := make([]float64, 0, len(boundaries)+len(extra))
	out = append(out, boundaries...)
	out = append(out, extra...)
	sort.Float64s(out)
	dedup := out[:0]
	for i, v := range out {
		if i == 0 || v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

// Histogram counts tuples per (cell, class) for one numeric attribute at
// one node. For B boundaries there are 2B+1 cells, alternating interior
// and atom cells:
//
//	cell 0:   (-Inf, b0)    interior
//	cell 1:   [b0]          atom
//	cell 2:   (b0, b1)      interior
//	...
//	cell 2B:  (b_{B-1}, +Inf) interior
type Histogram struct {
	Boundaries []float64
	Counts     [][]int64

	// flat is the contiguous backing of Counts (stride = class count);
	// AddBatch addresses it directly, saving the outer-slice indirection.
	flat    []int64
	classes int

	// bidx is the lazily-built bucket index that AddBatch uses to replace
	// the per-row binary search with an O(1) table lookup. Boundaries are
	// immutable after construction, so the index never needs invalidating;
	// it is built on the first AddBatch, amortizing its cost across the
	// batches of a scan (the per-row Add path never pays for it).
	bidx *bucketIndex
}

// bucketIndex accelerates boundary searches: values are mapped to one of
// nb uniform buckets spanning [min, max]. A bucket holding at most one
// boundary resolves a value with two comparisons against bval[k] — no
// loop, no data-dependent branch, which matters because scan values are
// continuous and any per-row branch on them is a coin flip the branch
// predictor loses. base[k] is the cell of a value below every boundary
// in bucket k (2 × the count of boundaries in earlier buckets); the two
// comparisons add the >=-boundary and >-boundary steps. The first bucket
// holds the minimum boundary and the last the maximum, so -Inf, +Inf and
// NaN, which bucketOf clamps to the ends, never meet an empty bucket.
// Empty buckets carry bval = +Inf (both comparisons false for finite
// values); the rare bucket holding two or more boundaries carries
// bval = NaN and base = -3, which the kernel detects (cell < 0) and
// resolves with the binary search. Nil slices mean the boundary set is
// degenerate — too few, too close, or so far apart that max-min
// overflows — and everything falls back to the seeded binary search.
type bucketIndex struct {
	min, scale float64
	bval       []float64
	base       []int32
}

func buildBucketIndex(b []float64) *bucketIndex {
	if len(b) == 0 {
		return &bucketIndex{}
	}
	min, max := b[0], b[len(b)-1]
	nb := 8 * len(b)
	scale := float64(nb) / (max - min)
	if !(scale > 0 && scale < math.Inf(1)) {
		return &bucketIndex{}
	}
	// Boundaries are bucketed with the same float arithmetic the lookups
	// use, so the per-bucket resolution is exact by the monotonicity of
	// bucketOf even under rounding.
	last := float64(nb - 1)
	bval := make([]float64, nb)
	base := make([]int32, nb)
	i := 0
	for k := 0; k < nb; k++ {
		for i < len(b) && bucketOf(b[i], min, scale, last) < k {
			i++
		}
		base[k] = int32(2 * i)
		switch {
		case i >= len(b) || bucketOf(b[i], min, scale, last) > k:
			bval[k] = math.Inf(1) // empty bucket
		case i+1 < len(b) && bucketOf(b[i+1], min, scale, last) == k:
			bval[k] = math.NaN() // crowded bucket
			base[k] = -3
		default:
			bval[k] = b[i]
		}
	}
	return &bucketIndex{min: min, scale: scale, bval: bval, base: base}
}

// bucketOf maps v to its bucket in [0, last]. It is monotone
// non-decreasing in v, which is all the index's correctness relies on.
// The position is clamped while it is still a float: Go leaves the
// conversion of out-of-range floats to int to the platform, and on amd64
// +Inf or 1e300 would convert to a negative bucket. NaN clamps to the
// last bucket, the side every router sends it to.
func bucketOf(v, min, scale, last float64) int {
	f := (v - min) * scale
	if f < 0 {
		f = 0
	}
	if !(f <= last) {
		f = last
	}
	return int(f)
}

// NewHistogram allocates a zeroed histogram over the boundaries
// (which must be sorted and distinct).
func NewHistogram(boundaries []float64, classCount int) *Histogram {
	nc := 2*len(boundaries) + 1
	counts := make([][]int64, nc)
	backing := make([]int64, nc*classCount)
	for i := range counts {
		counts[i] = backing[i*classCount : (i+1)*classCount]
	}
	return &Histogram{Boundaries: boundaries, Counts: counts, flat: backing, classes: classCount}
}

// CellOf returns the cell index of value v.
func (h *Histogram) CellOf(v float64) int {
	i := sort.SearchFloat64s(h.Boundaries, v)
	if i < len(h.Boundaries) && h.Boundaries[i] == v {
		return 2*i + 1 // atom
	}
	return 2 * i // interior
}

// IsAtom reports whether the cell is a single boundary value.
func (h *Histogram) IsAtom(cell int) bool { return cell%2 == 1 }

// AtomValue returns the boundary value of an atom cell.
func (h *Histogram) AtomValue(cell int) float64 { return h.Boundaries[cell/2] }

// CellLowerEdge returns the infimum of the cell's range (-Inf for cell 0).
func (h *Histogram) CellLowerEdge(cell int) float64 {
	if h.IsAtom(cell) {
		return h.Boundaries[cell/2]
	}
	if cell == 0 {
		return math.Inf(-1)
	}
	return h.Boundaries[cell/2-1]
}

// CellUpperEdge returns the supremum of the cell's range (+Inf for the
// last cell).
func (h *Histogram) CellUpperEdge(cell int) float64 {
	if h.IsAtom(cell) {
		return h.Boundaries[cell/2]
	}
	if cell/2 >= len(h.Boundaries) {
		return math.Inf(1)
	}
	return h.Boundaries[cell/2]
}

// Add registers w occurrences of (v, class).
func (h *Histogram) Add(v float64, class int, w int64) {
	h.Counts[h.CellOf(v)][class] += w
}

// AddBatch registers w occurrences (w may be negative: deletions in the
// dynamic environment) of (col[r], classes[r]) for every row r in idx, or
// for every row of col when idx is nil. It is exactly equivalent to
// calling Add(col[r], int(classes[r]), w) per row, so a batch added at +1
// and removed at -1 leaves every count at zero. The batched form replaces
// the per-row binary search with a bucket-index lookup built once per
// histogram, addresses the contiguous count backing directly, and
// special-cases the zero- and one-boundary histograms of deep nodes.
// Degenerate boundary sets the index cannot cover fall back to a binary
// search seeded with the previous row's cell. On every path NaN, +Inf
// and every value above the last boundary land in the top cell, as in
// CellOf.
func (h *Histogram) AddBatch(col []float64, classes []int32, idx []int32, w int64) {
	b, flat, nc := h.Boundaries, h.flat, h.classes
	switch len(b) {
	case 0: // single cell: every row lands in cell 0
		if idx == nil {
			for r := range col {
				flat[classes[r]] += w
			}
			return
		}
		for _, r := range idx {
			flat[classes[r]] += w
		}
		return
	case 1: // three cells: two compares beat any search (NaN lands in 2)
		b0 := b[0]
		if idx == nil {
			for r, v := range col {
				cell := b2i(!(v < b0)) + b2i(!(v <= b0))
				flat[cell*nc+int(classes[r])] += w
			}
			return
		}
		for _, r := range idx {
			v := col[r]
			cell := b2i(!(v < b0)) + b2i(!(v <= b0))
			flat[cell*nc+int(classes[r])] += w
		}
		return
	}
	if h.bidx == nil {
		h.bidx = buildBucketIndex(b)
	}
	if bval := h.bidx.bval; len(bval) > 0 {
		// The row kernel: a clamp, two table loads and two boundary
		// comparisons per row, with no search loop. The comparisons become
		// flag materializations through b2i rather than branches, which on
		// continuous values the predictor loses. They are negated so that
		// NaN, which bucketOf sends to the last bucket, counts as above that
		// bucket's boundary — the maximum — and lands in the top cell. The
		// crowded-bucket fallback almost never fires.
		min, scale, last := h.bidx.min, h.bidx.scale, float64(len(bval)-1)
		base := h.bidx.base[:len(bval)]
		if idx == nil {
			classes := classes[:len(col)]
			for r, v := range col {
				k := bucketOf(v, min, scale, last)
				bv := bval[k]
				cell := int(base[k]) + b2i(!(v < bv)) + b2i(!(v <= bv))
				if cell < 0 { // crowded bucket: NaN bval, negative base
					cell = cellOf(b, v)
				}
				flat[cell*nc+int(classes[r])] += w
			}
			return
		}
		for _, r := range idx {
			v := col[r]
			k := bucketOf(v, min, scale, last)
			bv := bval[k]
			cell := int(base[k]) + b2i(!(v < bv)) + b2i(!(v <= bv))
			if cell < 0 {
				cell = cellOf(b, v)
			}
			flat[cell*nc+int(classes[r])] += w
		}
		return
	}
	cell := -1
	if idx == nil {
		for r, v := range col {
			if cell < 0 || !cellContains(b, cell, v) {
				cell = cellOf(b, v)
			}
			flat[cell*nc+int(classes[r])] += w
		}
		return
	}
	for _, r := range idx {
		v := col[r]
		if cell < 0 || !cellContains(b, cell, v) {
			cell = cellOf(b, v)
		}
		flat[cell*nc+int(classes[r])] += w
	}
}

// b2i is 1 for true and 0 for false; the compiler turns it into a SETcc,
// so a comparison feeding it costs no branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cellContains reports whether v falls in cell over boundaries b — the
// seed test that lets AddBatch skip the binary search for runs of values
// landing in one cell.
func cellContains(b []float64, cell int, v float64) bool {
	if cell&1 == 1 {
		return v == b[cell/2] // atom
	}
	i := cell / 2 // interior (b[i-1], b[i]), unbounded at the ends
	if i > 0 && v <= b[i-1] {
		return false
	}
	return i >= len(b) || v < b[i]
}

// cellOf computes CellOf with the binary search inlined; the search uses
// the predicate of sort.SearchFloat64s (smallest i with b[i] >= v), so the
// result matches CellOf bit for bit — NaN included, which no boundary is
// >= and which therefore lands in the top cell.
func cellOf(b []float64, v float64) int {
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if !(b[mid] >= v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(b) && b[lo] == v {
		return 2*lo + 1 // atom
	}
	return 2 * lo // interior
}

// NumCells returns the cell count.
func (h *Histogram) NumCells() int { return len(h.Counts) }

// CellTotal returns the number of tuples in a cell.
func (h *Histogram) CellTotal(cell int) int64 {
	var s int64
	for _, c := range h.Counts[cell] {
		s += c
	}
	return s
}

// StampPoints returns the cumulative class counts at the cell edges:
// stamps[c] is the stamp point just below cell c, and stamps[c+1] the one
// at its upper edge; stamps[0] is all-zero and the final entry equals the
// family's class totals. For an atom cell c at boundary b, stamps[c+1] is
// exactly the stamp point of the split X <= b.
func (h *Histogram) StampPoints() [][]int64 {
	k := 0
	if len(h.Counts) > 0 {
		k = len(h.Counts[0])
	}
	stamps := make([][]int64, len(h.Counts)+1)
	backing := make([]int64, (len(h.Counts)+1)*k)
	stamps[0] = backing[:k]
	cum := make([]int64, k)
	for c := range h.Counts {
		for j, v := range h.Counts[c] {
			cum[j] += v
		}
		row := backing[(c+1)*k : (c+2)*k]
		copy(row, cum)
		stamps[c+1] = row
	}
	return stamps
}

// Reset zeroes all counts, keeping the boundaries.
func (h *Histogram) Reset() {
	for _, row := range h.Counts {
		for i := range row {
			row[i] = 0
		}
	}
}
