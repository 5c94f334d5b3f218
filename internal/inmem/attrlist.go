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
// One build allocates its lists, row and side arrays once. A node owns
// the range [lo, hi) of every attribute list and of the row array, and a
// split partitions that range in place. An impurity-based method's split
// is found by the pruned search of search.go, which aggregates only the
// buckets of each list whose Lemma 3.1 bound can beat the best split
// found so far; any other method gets the node's whole AVC-group, count
// rows reused at every node. A build run on a pool's Worker (pool.go)
// forks its per-attribute passes and its large subtrees; each fork item
// writes only its own attribute's range, its own subtree's ranges or the
// running worker's scratch, so the tree is the same at every worker
// count.
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
	pruned bool            // the method is impurity-based: its split comes from the pruned search
	crit   split.Criterion // the pruned search's criterion

	lists   [][]entry   // per attribute, sorted by value; nil for categorical attributes
	cols    [][]float64 // per attribute, codes by row id; nil for numeric attributes
	classes []int32     // class labels by row id
	rows    []int32     // row ids, ascending within every node's range
	side    []uint8     // side[row]: 1 if the row goes left at the node splitting it

	num      []int // the numeric attribute indexes
	slot     []int // slot[a]: the position of a in num; -1 for categorical attributes
	distinct []int // per numeric attribute: the value runs of its root list

	root  *nodeState // the search state of the build's own frame
	owner int        // the id of the worker running the build; 0 without a pool
	sets  []*scratch // per worker id: that worker's private scratch in this build
}

// nodeState is the part of a node's split search that lives from its
// first phase to its second: per attribute the best split found so far;
// per numeric attribute the pruned search's bucket bounds, their
// thresholds and stamp points; and the AVC-group, whose categorical sets
// both searches fill and whose numeric sets only the exhaustive search
// does. The frame that grows a node's children reuses it; a subtree that
// another worker takes gets its own.
type nodeState struct {
	best   []split.Split
	bounds []int32   // per numeric attribute, up to maxBuckets+1 positions in the node's list, the last its length
	thr    []float64 // per bound: the value of the first entry of the run ending there
	stamps []int64   // per bound: the k class counts of the list before it
	stats  split.NodeStats
	counts [][][]int64 // exhaustive search, per numeric attribute: count rows for the runs of a node's list
}

// scratch is one worker's private working memory in one build. A worker
// runs one task of a build at a time, and a frame it suspends at a join
// holds nothing in it, so each task uses its running worker's scratch.
// The buffers grow to the largest range the worker served.
type scratch struct {
	entries []entry   // the second buffer of a sort, a merge or a list partition
	rowBuf  []int32   // the right-hand rows of a row partition
	vals    []float64 // the AVC-set of the bucket being scanned: run values
	rows    [][]int64 //   and their class counts, on one backing
	left    []int64   // a bucket scan's left counts
	q       []int64   // QualityFromLeft's scratch
	counts  searchCounts
}

// searchCounts counts the pruned search's work for tests: listed the
// numeric list entries of every searched node, the entries the exhaustive
// search aggregates; aggregated those of the scanned buckets; corners the
// corner points the bound evaluated; and pruned the buckets it skipped.
type searchCounts struct {
	listed, aggregated, corners, pruned int64
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
	return f.Build(cfg, nil)
}

// newListBuilder allocates the working memory of a build over n rows run
// by w: the attribute lists (filled by the caller, sorted or not) and the
// row and side arrays. The caller supplies the class column and the
// categorical code columns, and the root's node state once the lists are
// sorted.
func newListBuilder(schema *data.Schema, cfg Config, n int, w *Worker) *listBuilder {
	attrs := schema.Attributes
	b := &listBuilder{
		schema:   schema,
		cfg:      cfg,
		lists:    make([][]entry, len(attrs)),
		cols:     make([][]float64, len(attrs)),
		rows:     make([]int32, n),
		side:     make([]uint8, n),
		num:      schema.NumericIndexes(),
		slot:     make([]int, len(attrs)),
		distinct: make([]int, len(attrs)),
		sets:     make([]*scratch, 1),
	}
	if m, ok := cfg.Method.(split.ImpurityBased); ok {
		b.pruned, b.crit = true, m.Criterion()
	}
	if w != nil {
		b.owner, b.sets = w.id, make([]*scratch, w.pool.workers)
	}
	arena := make([]entry, len(b.num)*n)
	for a := range b.slot {
		b.slot[a] = -1
	}
	for t, a := range b.num {
		b.slot[a] = t
		b.lists[a], arena = arena[:n:n], arena[n:]
	}
	for i := range b.rows {
		b.rows[i] = int32(i)
	}
	return b
}

// newNodeState allocates a node state; the exhaustive search's count rows
// grow at their first use.
func (b *listBuilder) newNodeState() *nodeState {
	attrs, k := b.schema.Attributes, b.schema.ClassCount
	st := &nodeState{
		best:  make([]split.Split, len(attrs)),
		stats: split.NodeStats{Schema: b.schema, Cat: make([]*split.CatAVC, len(attrs))},
	}
	for a, attr := range attrs {
		if attr.Kind == data.Categorical {
			st.stats.Cat[a] = split.NewCatAVC(attr.Cardinality, k)
		}
	}
	if b.pruned {
		slots := len(b.num) * (maxBuckets + 1)
		st.bounds, st.thr, st.stamps = make([]int32, slots), make([]float64, slots), make([]int64, slots*k)
	} else {
		st.stats.Num = make([]*split.NumericAVC, len(attrs))
		st.counts = make([][][]int64, len(attrs))
		for _, a := range b.num {
			st.stats.Num[a] = &split.NumericAVC{}
		}
	}
	return st
}

// set returns w's scratch in this build, the only worker's without a
// pool.
func (b *listBuilder) set(w *Worker) *scratch {
	id := 0
	if w != nil {
		id = w.id
	}
	sc := b.sets[id]
	if sc == nil {
		k := b.schema.ClassCount
		sc = &scratch{left: make([]int64, k), q: make([]int64, k)}
		b.sets[id] = sc
	}
	return sc
}

// entryBuf returns the scratch's entry buffer, at least n long.
func (sc *scratch) entryBuf(n int) []entry {
	if len(sc.entries) < n {
		sc.entries = make([]entry, n)
	}
	return sc.entries
}

// fork runs fn(i, w) for every i in [0, n) on behalf of a frame of the
// build running on w, over a node or family of size rows. With a pool and
// at least forkRows rows the items are one fork of tasks of kind (see
// Pool); otherwise every item runs in order on w. fn receives the worker
// running the item, whose scratch it may use.
func (b *listBuilder) fork(w *Worker, size int, kind taskKind, n int, fn func(i int, w *Worker)) {
	if w == nil || size < forkRows || n < 2 {
		for i := 0; i < n; i++ {
			fn(i, w)
		}
		return
	}
	w.fork(kind, b.owner, n, func(i int, w *Worker, _ bool) { fn(i, w) })
}

// forkRows is the least node or family size whose work a fit offers to a
// pool's other workers.
const forkRows = 4096

// runs returns the number of value runs of a sorted list.
func runs(l []entry) int {
	n := 0
	for i := range l {
		if i == 0 || !split.SameValue(l[i].v, l[i-1].v) {
			n++
		}
	}
	return n
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

// grow grows the tree over every row from the sorted lists, on w.
func (b *listBuilder) grow(w *Worker) *tree.Tree {
	return &tree.Tree{Schema: b.schema, Root: b.buildNode(0, len(b.rows), 0, b.root, w)}
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

// buildNode grows the subtree of the node owning [lo, hi) at depth, on
// w with the node state st. When both children reach forkRows, the two
// subtrees are one fork: w grows the left one while the right one is
// offered to the pool.
func (b *listBuilder) buildNode(lo, hi, depth int, st *nodeState, w *Worker) *tree.Node {
	classTotals := make([]int64, b.schema.ClassCount)
	for _, row := range b.rows[lo:hi] {
		classTotals[b.classes[row]]++
	}
	n := &tree.Node{ClassCounts: classTotals, Label: tree.MajorityLabel(classTotals)}
	if b.cfg.StopBeforeSplit(int64(hi-lo), depth, classTotals) {
		return n
	}
	var best split.Split
	if b.pruned {
		best = b.prunedSplit(lo, hi, classTotals, st, w)
	} else {
		best = b.exhaustiveSplit(lo, hi, classTotals, st, w)
	}
	if !best.Found {
		return n
	}
	n.Crit = best
	mid := b.partition(lo, hi, best, w)
	if w == nil || min(mid-lo, hi-mid) < forkRows {
		n.Left = b.buildNode(lo, mid, depth+1, st, w)
		n.Right = b.buildNode(mid, hi, depth+1, st, w)
		return n
	}
	w.fork(subtreeTask, b.owner, 2, func(i int, w *Worker, own bool) {
		if i == 0 {
			n.Left = b.buildNode(lo, mid, depth+1, st, w)
			return
		}
		rst := st
		if !own {
			rst = b.newNodeState()
		}
		n.Right = b.buildNode(mid, hi, depth+1, rst, w)
	})
	return n
}

// partition records every row's side of crit, then partitions [lo, hi)
// of the row array and of each attribute list stably in place, and
// returns the boundary between the children. The row array and each list
// are one item of a fork, moved through the running worker's scratch.
func (b *listBuilder) partition(lo, hi int, crit split.Split, w *Worker) int {
	mid := lo
	moved := b.num
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
		moved = make([]int, 0, len(b.num))
		for _, a := range b.num {
			if a != crit.Attr {
				moved = append(moved, a)
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
	b.fork(w, hi-lo, partitionTask, 1+len(moved), func(i int, w *Worker) {
		sc := b.set(w)
		if i == 0 {
			if len(sc.rowBuf) < hi-lo {
				sc.rowBuf = make([]int32, hi-lo)
			}
			partitionRows(b.rows[lo:hi], b.side, sc.rowBuf)
			return
		}
		partitionList(b.lists[moved[i-1]][lo:hi], b.side, sc.entryBuf(hi-lo))
	})
	return mid
}

// partitionRows moves the rows whose side is 1 to the front of rows,
// stably, and the others after them, through buf. Every element is
// written to both destinations and only the cursor of its side advances:
// a branch on the side would mispredict on about every other element of
// a balanced split.
func partitionRows(rows []int32, side []uint8, buf []int32) {
	w, r := 0, 0
	for _, row := range rows {
		s := int(side[row])
		rows[w] = row
		buf[r] = row
		w += s
		r += 1 - s
	}
	copy(rows[w:], buf[:r])
}

// partitionList is partitionRows for an attribute list.
func partitionList(es []entry, side []uint8, buf []entry) {
	w, r := 0, 0
	for _, e := range es {
		s := int(side[e.row])
		es[w] = e
		buf[r] = e
		w += s
		r += 1 - s
	}
	copy(es[w:], buf[:r])
}

// exhaustiveSplit returns the split of a method without a criterion at
// the node owning [lo, hi): the node's whole AVC-group, one attribute's
// sets per fork item, then Method.BestSplit.
func (b *listBuilder) exhaustiveSplit(lo, hi int, classTotals []int64, st *nodeState, w *Worker) split.Split {
	st.stats.ClassTotals = classTotals
	b.fork(w, hi-lo, searchTask, len(b.schema.Attributes), func(a int, _ *Worker) {
		b.fillAVC(lo, hi, a, st)
	})
	return b.cfg.Method.BestSplit(&st.stats)
}

// fillAVC fills attribute a's AVC-set of the node owning [lo, hi) in st:
// a numeric attribute by linear run aggregation over its sorted list, into
// count rows grown to the node's size or the root's distinct count,
// whichever is smaller; a categorical attribute by a counting pass over
// the rows.
func (b *listBuilder) fillAVC(lo, hi, a int, st *nodeState) {
	if b.slot[a] < 0 {
		avc := st.stats.Cat[a]
		avc.Reset()
		avc.AddBatch(b.cols[a], b.classes, b.rows[lo:hi], 1)
		return
	}
	avc := st.stats.Num[a]
	if need := min(b.distinct[a], hi-lo); len(st.counts[a]) < need {
		st.counts[a] = countRows(need, b.schema.ClassCount)
		avc.Values = make([]float64, 0, need)
	}
	avc.Values = aggregateRuns(b.lists[a][lo:hi], avc.Values, st.counts[a])
	avc.Counts = st.counts[a][:len(avc.Values)]
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
