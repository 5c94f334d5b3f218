package inmem

import (
	"math"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// Attribute-list tree construction in the style of SPRINT (Shafer,
// Agrawal, Mehta, VLDB 1996): each numeric attribute is sorted once at
// the root into an "attribute list" of (value, class, row) entries; when
// a node splits, every list is partitioned stably between the children,
// so sorted order is preserved and no sorting happens below the root.
// AVC-sets are built by linear run aggregation over the sorted lists.
//
// One build allocates its working memory once. A node owns the range
// [lo, hi) of every attribute list and of the row array, and a split
// partitions that range in place. An impurity-based method's split is
// found by the pruned search of search.go, which aggregates only the
// buckets of each list whose Lemma 3.1 bound can beat the best split found
// so far; any other method gets the node's whole AVC-group, scratch reused
// at every node.
//
// The selected splits are identical to the naive per-node re-sorting
// builder (both feed the same integer counts to the same split-selection
// code); the test suite keeps that builder as the oracle and cross-checks
// the two on randomized inputs.

// entry is one attribute-list entry: a numeric value, the class label of
// its tuple, and the tuple's row id into the class and code columns.
type entry struct {
	v     float64
	class int32
	row   int32
}

type listBuilder struct {
	schema *data.Schema
	cfg    Config

	lists      [][]entry   // per attribute, sorted by value; nil for categorical attributes
	cols       [][]float64 // per attribute, codes by row id; nil for numeric attributes
	classes    []int32     // class labels by row id
	rows       []int32     // row ids, ascending within every node's range
	side       []uint8     // side[row]: 1 if the row goes left at the node currently splitting
	scratch    []entry     // right-hand entries during a partition; radix buffer at the root
	rowScratch []int32     // right-hand row ids during a partition

	num    []int           // the numeric attribute indexes
	search *bucketSearch   // the pruned split search of an impurity-based method; nil for others
	stats  split.NodeStats // the AVC-group of the node being split, reused at every node
	counts [][][]int64     // exhaustive search only, per numeric attribute: count rows for its root distinct values
}

// Build constructs the decision tree for the family using attribute
// lists: it copies the tuples into a Family presized to them and grows
// the tree with Family.Build. The tuple slice itself is not reordered.
// Every tuple must lie in the schema's domain (data.Schema.CheckDomain):
// categorical codes are whole numbers in [0, Cardinality) and classes lie
// in [0, ClassCount).
func Build(schema *data.Schema, tuples []data.Tuple, cfg Config) *tree.Tree {
	n := len(tuples)
	f := NewFamily(schema, n)
	for a := range f.cols {
		f.cols[a] = f.cols[a][:n]
	}
	f.class, f.dead = f.class[:n], f.dead[:n]
	// One pass over the tuples fills every column, so each tuple's values
	// are read once.
	for i := range tuples {
		t := &tuples[i]
		f.class[i] = int32(t.Class)
		for a, v := range t.Values[:len(f.cols)] {
			f.cols[a][i] = v
		}
	}
	return f.Build(cfg)
}

// newListBuilder allocates the working memory of a build over n rows:
// the attribute lists (filled by the caller, sorted or not), the row,
// side and scratch arrays, the categorical AVC-sets and, for an
// impurity-based method, the pruned search's bucket state. The caller
// supplies the class column and the categorical code columns.
func newListBuilder(schema *data.Schema, cfg Config, n int) *listBuilder {
	attrs := schema.Attributes
	b := &listBuilder{
		schema:     schema,
		cfg:        cfg,
		lists:      make([][]entry, len(attrs)),
		cols:       make([][]float64, len(attrs)),
		rows:       make([]int32, n),
		side:       make([]uint8, n),
		scratch:    make([]entry, n),
		rowScratch: make([]int32, n),
		num:        schema.NumericIndexes(),
		stats: split.NodeStats{
			Schema: schema,
			Cat:    make([]*split.CatAVC, len(attrs)),
		},
	}
	if m, ok := cfg.Method.(split.ImpurityBased); ok {
		b.search = newBucketSearch(m.Criterion(), len(b.num), schema.ClassCount, n)
	}
	arena := make([]entry, len(b.num)*n)
	for a, attr := range attrs {
		if attr.Kind == data.Numeric {
			b.lists[a], arena = arena[:n:n], arena[n:]
		} else {
			b.stats.Cat[a] = split.NewCatAVC(attr.Cardinality, schema.ClassCount)
		}
	}
	for i := range b.rows {
		b.rows[i] = int32(i)
	}
	return b
}

// distinct returns the number of value runs of every numeric attribute's
// sorted root list, 0 for categorical attributes.
func (b *listBuilder) distinct() []int {
	d := make([]int, len(b.lists))
	for _, a := range b.num {
		l := b.lists[a]
		for i := range l {
			if i == 0 || !split.SameValue(l[i].v, l[i-1].v) {
				d[a]++
			}
		}
	}
	return d
}

// sizeCounts allocates the AVC-set storage of the exhaustive search for
// every numeric attribute from its root distinct count, which bounds the
// AVC-set of every node below the root.
func (b *listBuilder) sizeCounts(distinct []int) {
	b.stats.Num = make([]*split.NumericAVC, len(b.lists))
	b.counts = make([][][]int64, len(b.lists))
	for _, a := range b.num {
		b.counts[a] = countRows(distinct[a], b.schema.ClassCount)
		b.stats.Num[a] = &split.NumericAVC{Values: make([]float64, 0, distinct[a])}
	}
}

// countRows returns n count rows of k classes on one backing.
func countRows(n, k int) [][]int64 {
	backing := make([]int64, n*k)
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = backing[i*k : (i+1)*k : (i+1)*k]
	}
	return rows
}

// grow grows the tree over every row from the sorted lists.
func (b *listBuilder) grow() *tree.Tree {
	return &tree.Tree{Schema: b.schema, Root: b.buildNode(0, len(b.rows), 0)}
}

// sortKey maps a value to an unsigned key whose order is the canonical
// AVC order (split.SameValue runs, ascending, NaN last): every NaN maps to
// the one largest key, -0 maps to +0, negative values flip all bits and
// the rest set the top bit.
func sortKey(v float64) uint64 {
	if v != v {
		return math.MaxUint64
	}
	if v == 0 {
		return 1 << 63
	}
	bits := math.Float64bits(v)
	return bits ^ (uint64(int64(bits)>>63) | 1<<63)
}

// sortEntries sorts es by sortKey with a stable least-significant-digit
// radix sort on 8-bit digits, using buf (at least len(es) long) as the
// second buffer. The root lists are filled in row order, so the result is
// ascending, NaN last as one run, ties by row id. A digit every key shares
// is skipped; integer-valued columns share their low mantissa bytes.
func sortEntries(es, buf []entry) {
	if len(es) < 2 {
		return
	}
	var hist [8][256]int
	for _, e := range es {
		k := sortKey(e.v)
		for d := range hist {
			hist[d][byte(k>>(8*d))]++
		}
	}
	first := sortKey(es[0].v)
	src, dst := es, buf[:len(es)]
	for d := range hist {
		h := &hist[d]
		shift := 8 * d
		if h[byte(first>>shift)] == len(es) {
			continue
		}
		sum := 0
		for i, c := range h {
			h[i] = sum
			sum += c
		}
		for _, e := range src {
			digit := byte(sortKey(e.v) >> shift)
			dst[h[digit]] = e
			h[digit]++
		}
		src, dst = dst, src
	}
	if &src[0] != &es[0] {
		copy(es, src)
	}
}

func (b *listBuilder) buildNode(lo, hi, depth int) *tree.Node {
	classTotals := make([]int64, b.schema.ClassCount)
	for _, row := range b.rows[lo:hi] {
		classTotals[b.classes[row]]++
	}
	n := &tree.Node{ClassCounts: classTotals, Label: tree.MajorityLabel(classTotals)}
	if b.cfg.StopBeforeSplit(int64(hi-lo), depth, classTotals) {
		return n
	}
	var best split.Split
	if b.search != nil {
		best = b.prunedSplit(lo, hi, classTotals)
	} else {
		b.fillStats(lo, hi, classTotals)
		best = b.cfg.Method.BestSplit(&b.stats)
	}
	if !best.Found {
		return n
	}
	n.Crit = best
	mid := b.partition(lo, hi, best)
	n.Left = b.buildNode(lo, mid, depth+1)
	n.Right = b.buildNode(mid, hi, depth+1)
	return n
}

// partition records every row's side of crit, then partitions [lo, hi)
// of the row array and of each attribute list stably in place, and
// returns the boundary between the children.
func (b *listBuilder) partition(lo, hi int, crit split.Split) int {
	mid := lo
	if crit.Kind == data.Numeric {
		// The left side of a numeric split is a prefix of its own sorted
		// list, which therefore needs no partitioning.
		for _, e := range b.lists[crit.Attr][lo:hi] {
			b.side[e.row] = 0
			if e.v <= crit.Threshold {
				b.side[e.row] = 1
				mid++
			}
		}
	} else {
		// The predicate of split.Split.Left, on the code column.
		col := b.cols[crit.Attr]
		for _, row := range b.rows[lo:hi] {
			b.side[row] = 0
			if code := uint(col[row]); code < 64 && crit.Subset&(1<<code) != 0 {
				b.side[row] = 1
				mid++
			}
		}
	}
	// Every element is written to both destinations and only the cursor
	// of its side advances: a branch on the side would mispredict on
	// about every other element of a balanced split.
	rows, w, r := b.rows[lo:hi], 0, 0
	for _, row := range rows {
		s := int(b.side[row])
		rows[w] = row
		b.rowScratch[r] = row
		w += s
		r += 1 - s
	}
	copy(rows[w:], b.rowScratch[:r])
	for a, attr := range b.schema.Attributes {
		if attr.Kind != data.Numeric || crit.Kind == data.Numeric && a == crit.Attr {
			continue
		}
		es, w, r := b.lists[a][lo:hi], 0, 0
		for _, e := range es {
			s := int(b.side[e.row])
			es[w] = e
			b.scratch[r] = e
			w += s
			r += 1 - s
		}
		copy(es[w:], b.scratch[:r])
	}
	return mid
}

// fillStats assembles the AVC-group of the node owning [lo, hi) in the
// reused scratch for the exhaustive search: numeric attributes by linear
// run aggregation over their sorted lists, categorical attributes by a
// counting pass over the rows.
func (b *listBuilder) fillStats(lo, hi int, classTotals []int64) {
	b.stats.ClassTotals = classTotals
	for a, attr := range b.schema.Attributes {
		if attr.Kind == data.Categorical {
			avc := b.stats.Cat[a]
			avc.Reset()
			avc.AddBatch(b.cols[a], b.classes, b.rows[lo:hi], 1)
			continue
		}
		avc := b.stats.Num[a]
		avc.Values = aggregateRuns(b.lists[a][lo:hi], avc.Values, b.counts[a])
		avc.Counts = b.counts[a][:len(avc.Values)]
	}
}

// aggregateRuns returns, in vals' storage, the value of the first entry
// of every value run of es, and counts the classes of run i in counts[i],
// which must hold a row per run.
func aggregateRuns(es []entry, vals []float64, counts [][]int64) []float64 {
	vals = vals[:0]
	var row []int64
	for i, e := range es {
		if i == 0 || !split.SameValue(e.v, es[i-1].v) {
			row = counts[len(vals)]
			clear(row)
			vals = append(vals, e.v)
		}
		row[e.class]++
	}
	return vals
}
