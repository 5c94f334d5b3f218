package inmem

import (
	"fmt"
	"math"
	"slices"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/tree"
)

// Family is a multiset of tuples kept between builds in the builder's own
// layout, so that a family maintained under inserts and deletes is refit
// by merging its changes into presorted lists instead of being copied out
// and sorted again. Values are stored once:
//
//   - a value column per attribute and a class column, indexed by row;
//   - per numeric attribute, the rows as a permutation in sortKey order,
//     ties by row: exactly the root order of Build's radix sort;
//   - a dead mark per row.
//
// Rows added since the last merge form an unsorted tail after the sorted
// rows. A removed row stays in place, marked dead, until the next
// compaction. Build merges the tail, drops the dead rows and grows the
// tree with Build's engine from lists gathered through the permutations;
// a grown tree depends only on the multiset's counts, so it equals Build
// on the family's tuples. The builder's working arrays are not kept
// between builds. A Family is not safe for concurrent use.
type Family struct {
	schema *data.Schema
	cols   [][]float64 // per attribute: values by row
	class  []int32     // class labels by row
	perm   [][]int32   // per numeric attribute: rows [0, sorted) in sortKey order; nil for categorical attributes
	dead   []bool      // dead[row]: removed, dropped at the next compaction
	sorted int         // rows [0, sorted) are in every permutation; the rest are the unsorted tail
	ndead  int
	// key is the numeric attribute Remove searches: the one with the most
	// distinct values at the last build, the first numeric attribute
	// before any build, and -1 in a schema without numeric attributes.
	key int
}

// NewFamily returns an empty family over schema with room for n rows:
// its columns take n rows before they grow.
func NewFamily(schema *data.Schema, n int) *Family {
	f := &Family{
		schema: schema,
		cols:   make([][]float64, len(schema.Attributes)),
		class:  make([]int32, 0, n),
		perm:   make([][]int32, len(schema.Attributes)),
		dead:   make([]bool, 0, n),
		key:    -1,
	}
	arena := make([]float64, len(f.cols)*n)
	for a := range f.cols {
		f.cols[a], arena = arena[:0:n], arena[n:]
	}
	if num := schema.NumericIndexes(); len(num) > 0 {
		f.key = num[0]
	}
	return f
}

// Schema returns the family's schema.
func (f *Family) Schema() *data.Schema { return f.schema }

// Len returns the number of live rows.
func (f *Family) Len() int { return len(f.class) - f.ndead }

// Dead returns the number of removed rows not yet compacted away.
func (f *Family) Dead() int { return f.ndead }

// Add appends the chunk rows named by idx (all rows when idx is nil) to
// the unsorted tail.
func (f *Family) Add(ch *data.Chunk, idx []int32) {
	n, k := len(f.class), ch.Len()
	if idx != nil {
		k = len(idx)
	}
	for a := range f.cols {
		f.cols[a] = appendRows(f.cols[a], ch.Col(a), idx)
	}
	f.class = appendRows(f.class, ch.Classes(), idx)
	f.dead = slices.Grow(f.dead, k)[:n+k]
	clear(f.dead[n:])
}

// appendRows appends the elements of src named by idx (all of them when
// idx is nil) to dst.
func appendRows[T any](dst, src []T, idx []int32) []T {
	if idx == nil {
		return append(dst, src...)
	}
	n := len(dst)
	dst = slices.Grow(dst, len(idx))[:n+len(idx)]
	for i, r := range idx {
		dst[n+i] = src[r]
	}
	return dst
}

// merge sorts the unsorted tail and merges it into every permutation.
func (f *Family) merge() {
	n := len(f.class)
	if f.sorted == n {
		return
	}
	buf := make([]entry, 2*(n-f.sorted))
	for a, attr := range f.schema.Attributes {
		if attr.Kind == data.Numeric {
			f.mergeAttr(a, buf)
		}
	}
	f.sorted = n
}

// mergeAttr sorts the unsorted tail of numeric attribute a and merges it
// into a's permutation, backwards and in place, through buf, at least
// twice the tail long. An old row wins a tie: every tail row has a larger
// row id, so the permutation stays ordered by row within a run.
func (f *Family) mergeAttr(a int, buf []entry) {
	n := len(f.class)
	m := n - f.sorted
	if m == 0 {
		return
	}
	tail := buf[:m]
	col := f.cols[a]
	for i := range tail {
		r := f.sorted + i
		tail[i] = entry{v: col[r], row: int32(r)}
	}
	sortEntries(tail, buf[m:2*m])
	p := slices.Grow(f.perm[a], m)[:n]
	i, j := f.sorted-1, m-1
	for w := n - 1; j >= 0; w-- {
		if i >= 0 && sortKey(col[p[i]]) > sortKey(tail[j].v) {
			p[w] = p[i]
			i--
		} else {
			p[w] = tail[j].row
			j--
		}
	}
	f.perm[a] = p
}

// Compact drops the dead rows in one pass over each column and
// permutation, renumbering the live rows in order.
func (f *Family) Compact() {
	if f.ndead == 0 {
		return
	}
	n := len(f.class)
	remap := make([]int32, n)
	live, sortedLive := 0, 0
	for r, d := range f.dead {
		remap[r] = -1
		if !d {
			remap[r] = int32(live)
			live++
			if r < f.sorted {
				sortedLive++
			}
		}
	}
	for a, col := range f.cols {
		f.cols[a] = keepLive(col, f.dead)
	}
	f.class = keepLive(f.class, f.dead)
	for a, p := range f.perm {
		if p == nil {
			continue
		}
		w := 0
		for _, r := range p {
			if m := remap[r]; m >= 0 {
				p[w] = m
				w++
			}
		}
		f.perm[a] = p[:w]
	}
	f.dead = f.dead[:live]
	clear(f.dead)
	f.sorted, f.ndead = sortedLive, 0
}

// keepLive compacts s in place down to the elements whose row is not
// dead.
func keepLive[T any](s []T, dead []bool) []T {
	w := 0
	for r, v := range s {
		if !dead[r] {
			s[w] = v
			w++
		}
	}
	return s[:w]
}

// Build grows the decision tree of the family's multiset under cfg on w
// (nil runs it on the caller's goroutine alone); the tree equals Build on
// the family's tuples. The family keeps its rows: Build drops the dead
// ones and merges the tail, so the next build starts presorted again,
// then gathers each numeric attribute's list through its permutation. A
// first build, all tail, sorts its lists directly and records the
// permutations from them instead. Each numeric attribute's pass is one
// fork item (see Pool).
func (f *Family) Build(cfg Config, w *Worker) *tree.Tree {
	return f.builder(cfg, w).grow(w)
}

// builder returns the builder of Build, its root lists filled.
func (f *Family) builder(cfg Config, w *Worker) *listBuilder {
	f.Compact()
	n := len(f.class)
	first := f.sorted == 0
	b := newListBuilder(f.schema, cfg, n, w)
	b.classes = f.class
	for a, attr := range f.schema.Attributes {
		if attr.Kind != data.Numeric {
			b.cols[a] = f.cols[a]
		}
	}
	b.fork(w, n, builderTask, len(b.num), func(t int, w *Worker) {
		a := b.num[t]
		col, l, sc := f.cols[a], b.lists[a], b.set(w)
		if first {
			for r := range l {
				l[r] = entry{v: col[r], class: f.class[r], row: int32(r)}
			}
			sortEntries(l, sc.entryBuf(n))
			p := slices.Grow(f.perm[a][:0], n)[:n]
			for i, e := range l {
				p[i] = e.row
			}
			f.perm[a] = p
		} else {
			f.mergeAttr(a, sc.entryBuf(2*(n-f.sorted)))
			for i, r := range f.perm[a] {
				l[i] = entry{v: col[r], class: f.class[r], row: r}
			}
		}
		b.distinct[a] = runs(l)
	})
	f.sorted = n
	for _, a := range b.num {
		if b.distinct[a] > b.distinct[f.key] {
			f.key = a
		}
	}
	b.root = b.newNodeState()
	return b
}

// Remove deletes one occurrence of each chunk row named by idx (all rows
// when idx is nil): the first live row, in row order, whose class and
// values equal it under data.Tuple.Equal (NaN matches NaN, -0 matches
// +0). The tail is merged first. Each removed row is found by binary
// search in the permutation of the numeric attribute with the most
// distinct values at the last build; removed rows that share a run of equal key values are
// matched in one pass over that run, so a batch never costs more than one
// pass over the family. A row that matches no live row fails the call;
// the rows matched before it stay removed.
func (f *Family) Remove(ch *data.Chunk, idx []int32) error {
	rows := idx
	if rows == nil {
		rows = make([]int32, ch.Len())
		for i := range rows {
			rows[i] = int32(i)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	f.merge()
	if f.key < 0 {
		// No numeric attribute: match the batch in one pass over the rows.
		return f.match(nil, ch, rows)
	}
	type keyed struct {
		k uint64
		r int32
	}
	byKey := make([]keyed, len(rows))
	keyCol := ch.Col(f.key)
	for i, r := range rows {
		byKey[i] = keyed{sortKey(keyCol[r]), r}
	}
	slices.SortFunc(byKey, func(x, y keyed) int {
		if x.k != y.k {
			if x.k < y.k {
				return -1
			}
			return 1
		}
		return int(x.r - y.r)
	})
	perm, col := f.perm[f.key], f.cols[f.key]
	group := rows[:0:0]
	for s := 0; s < len(byKey); {
		k := byKey[s].k
		group = group[:0]
		for ; s < len(byKey) && byKey[s].k == k; s++ {
			group = append(group, byKey[s].r)
		}
		lo := searchKey(perm, col, k, false)
		hi := lo + searchKey(perm[lo:], col, k, true)
		if err := f.match(perm[lo:hi], ch, group); err != nil {
			return err
		}
	}
	return nil
}

// searchKey returns the first position of p whose row's key is at least
// k, or above k when above is set.
func searchKey(p []int32, col []float64, k uint64, above bool) int {
	lo, hi := 0, len(p)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x := sortKey(col[p[m]]); x < k || above && x == k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// match marks dead, for each chunk row in removed, the first live row
// equal to it among run, a set of rows in row order (every row when run
// is nil). One removal scans the run up to its match; several are hashed
// and matched in one pass over the run.
func (f *Family) match(run []int32, ch *data.Chunk, removed []int32) error {
	n := len(run)
	if run == nil {
		n = len(f.class)
	}
	at := func(i int) int {
		if run == nil {
			return i
		}
		return int(run[i])
	}
	if len(removed) == 1 {
		c := removed[0]
		for i := 0; i < n; i++ {
			if r := at(i); !f.dead[r] && f.equal(r, ch, c) {
				f.dead[r] = true
				f.ndead++
				return nil
			}
		}
		return f.unmatched(ch, c)
	}
	pending := make(map[uint64][]int32, len(removed))
	vals := make([]float64, len(f.cols))
	for _, c := range removed {
		ch.Gather(int(c), vals)
		h := rowHash(vals, int32(ch.Class(int(c))))
		pending[h] = append(pending[h], c)
	}
	left := len(removed)
	for i := 0; i < n && left > 0; i++ {
		r := at(i)
		if f.dead[r] {
			continue
		}
		for a, col := range f.cols {
			vals[a] = col[r]
		}
		h := rowHash(vals, f.class[r])
		bucket := pending[h]
		for j, c := range bucket {
			if f.equal(r, ch, c) {
				f.dead[r] = true
				f.ndead++
				pending[h] = slices.Delete(bucket, j, j+1)
				left--
				break
			}
		}
	}
	if left > 0 {
		for _, bucket := range pending {
			if len(bucket) > 0 {
				return f.unmatched(ch, bucket[0])
			}
		}
	}
	return nil
}

// equal reports whether row r equals chunk row c under data.Tuple.Equal.
func (f *Family) equal(r int, ch *data.Chunk, c int32) bool {
	if f.class[r] != int32(ch.Class(int(c))) {
		return false
	}
	for a, col := range f.cols {
		x, y := col[r], ch.Value(int(c), a)
		if x != y && (x == x || y == y) {
			return false
		}
	}
	return true
}

// rowHash hashes a row consistently with data.Tuple.Equal: every NaN
// hashes as one value, and -0 as +0.
func rowHash(vals []float64, class int32) uint64 {
	h := uint64(class) * 0x9E3779B97F4A7C15
	for _, v := range vals {
		b := math.Float64bits(v)
		if v != v {
			b = math.MaxUint64
		} else if v == 0 {
			b = 0
		}
		h = (h ^ b) * 0x100000001B3
		h ^= h >> 29
	}
	return h
}

func (f *Family) unmatched(ch *data.Chunk, c int32) error {
	return fmt.Errorf("inmem: removed tuple %v did not match any live row of the family", ch.TupleCopy(int(c)))
}

// ForEachChunk streams the live rows in row order, a chunk at a time: fn
// receives each chunk and a nil index set (every row of it). The chunk is
// only valid during the call.
func (f *Family) ForEachChunk(fn func(ch *data.Chunk, idx []int32) error) error {
	live := f.Len()
	if live == 0 {
		return nil
	}
	ch := data.NewChunk(len(f.cols), min(live, data.DefaultChunkRows))
	t := data.Tuple{Values: make([]float64, len(f.cols))}
	for r, d := range f.dead {
		if d {
			continue
		}
		for a, col := range f.cols {
			t.Values[a] = col[r]
		}
		t.Class = int(f.class[r])
		ch.AppendTuple(t)
		if ch.Full() {
			if err := fn(ch, nil); err != nil {
				return err
			}
			ch.Reset()
		}
	}
	if ch.Len() == 0 {
		return nil
	}
	return fn(ch, nil)
}

// Check verifies the layout: every column and the dead marks span the
// same rows, only sorted rows are dead, and every permutation holds each
// sorted row exactly once, in sortKey order with ties by row.
func (f *Family) Check() error {
	n := len(f.class)
	if len(f.dead) != n || f.sorted > n {
		return fmt.Errorf("inmem: family of %d rows has %d dead marks, %d sorted rows", n, len(f.dead), f.sorted)
	}
	dead := 0
	for r, d := range f.dead {
		if d {
			dead++
			if r >= f.sorted {
				return fmt.Errorf("inmem: tail row %d is dead", r)
			}
		}
	}
	if dead != f.ndead {
		return fmt.Errorf("inmem: family counts %d dead rows, marks %d", f.ndead, dead)
	}
	seen := make([]bool, f.sorted)
	for a, attr := range f.schema.Attributes {
		col := f.cols[a]
		if len(col) != n {
			return fmt.Errorf("inmem: column %d has %d rows, want %d", a, len(col), n)
		}
		if attr.Kind != data.Numeric {
			continue
		}
		p := f.perm[a]
		if len(p) != f.sorted {
			return fmt.Errorf("inmem: permutation of attribute %d covers %d rows, want %d", a, len(p), f.sorted)
		}
		clear(seen)
		for i, r := range p {
			if r < 0 || int(r) >= f.sorted || seen[r] {
				return fmt.Errorf("inmem: permutation of attribute %d repeats or leaves row %d", a, r)
			}
			seen[r] = true
			if i == 0 {
				continue
			}
			prev := p[i-1]
			if k, kp := sortKey(col[r]), sortKey(col[prev]); k < kp || k == kp && r < prev {
				return fmt.Errorf("inmem: permutation of attribute %d out of order at %d", a, i)
			}
		}
	}
	return nil
}
