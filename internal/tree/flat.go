package tree

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"

	"github.com/boatml/boat/internal/data"
)

// FlatTree is an immutable, breadth-first, struct-of-arrays compilation of
// a Tree, built for the read path: classification touches a handful of
// small parallel arrays instead of chasing heap pointers through Node
// structs, and ClassifyChunk routes a whole columnar chunk node by node —
// each node partitions its batch of row indices in one pass over a single
// contiguous attribute column with the split constants hoisted out of the
// loop (the level-synchronous descent of the chunk router that builds and
// maintains the tree, DESIGN.md §11, applied to the read path).
//
// Layout: node ids are assigned in breadth-first order, the root is id 0,
// and an internal node's children are allocated as an adjacent pair
// (right[n] == left[n]+1). Leaves self-loop (left[n] == right[n] == n)
// with a predicate that can never fire, so per-row descent loops need no
// separate leaf test: a row that reached its leaf simply stays put.
//
// Routing is the single unified predicate
//
//	goLeft = v <= thresh[n]  ||  (uint(v) < 64 && subset[n] bit uint(v) set)
//
// which reproduces split.Split.Left bit-exactly for both kinds without a
// per-node kind branch: numeric nodes store subset == 0 (the subset term
// is always false) and categorical nodes store thresh == NaN (every
// ordered comparison with NaN is false). The NaN sentinel also gives
// leaves their never-true predicate. Edge cases are therefore pinned to
// the pointer walk's behavior: NaN numeric values route right, exact
// threshold hits route left, and unseen categorical codes (bit not in the
// subset, or code >= 64) route right.
type FlatTree struct {
	schema *data.Schema
	left   []int32
	right  []int32
	attr   []int32
	thresh []float64
	subset []uint64
	label  []int32
	depth  int
	leaves int
}

// Compile flattens the tree into the struct-of-arrays layout. The input
// tree is not retained; the result is immutable and safe for concurrent
// use by any number of goroutines.
func Compile(t *Tree) (*FlatTree, error) {
	if t == nil || t.Root == nil {
		return nil, errors.New("tree: compiling nil tree")
	}
	width := len(t.Schema.Attributes)
	n := t.NumNodes()
	if int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("tree: %d nodes exceed the flat layout's int32 ids", n)
	}
	f := &FlatTree{
		schema: t.Schema,
		left:   make([]int32, 0, n),
		right:  make([]int32, 0, n),
		attr:   make([]int32, 0, n),
		thresh: make([]float64, 0, n),
		subset: make([]uint64, 0, n),
		label:  make([]int32, 0, n),
		depth:  t.Depth(),
	}
	// Breadth-first walk; the queue index is the node id, and appending
	// both children of a node together yields the adjacent-pair layout.
	queue := make([]*Node, 1, n)
	queue[0] = t.Root
	for i := 0; i < len(queue); i++ {
		nd := queue[i]
		if nd.IsLeaf() {
			f.left = append(f.left, int32(i))
			f.right = append(f.right, int32(i))
			f.attr = append(f.attr, 0)
			f.thresh = append(f.thresh, math.NaN())
			f.subset = append(f.subset, 0)
			f.label = append(f.label, int32(nd.Label))
			f.leaves++
			continue
		}
		if nd.Left == nil || nd.Right == nil {
			return nil, errors.New("tree: compiling internal node with nil child")
		}
		a := nd.Crit.Attr
		if a < 0 || a >= width {
			return nil, fmt.Errorf("tree: compiling split on attribute %d outside schema width %d", a, width)
		}
		li := int32(len(queue))
		queue = append(queue, nd.Left, nd.Right)
		f.left = append(f.left, li)
		f.right = append(f.right, li+1)
		f.attr = append(f.attr, int32(a))
		if nd.Crit.Kind == data.Numeric {
			f.thresh = append(f.thresh, nd.Crit.Threshold)
			f.subset = append(f.subset, 0)
		} else {
			f.thresh = append(f.thresh, math.NaN())
			f.subset = append(f.subset, nd.Crit.Subset)
		}
		f.label = append(f.label, int32(nd.Label))
	}
	return f, nil
}

// Schema returns the schema the tree classifies over.
func (f *FlatTree) Schema() *data.Schema { return f.schema }

// NumNodes returns the total node count.
func (f *FlatTree) NumNodes() int { return len(f.left) }

// NumLeaves returns the leaf count.
func (f *FlatTree) NumLeaves() int { return f.leaves }

// Depth returns the maximum number of edges from the root to a leaf.
func (f *FlatTree) Depth() int { return f.depth }

// IsLeafNode reports whether node n is a leaf (leaves self-loop).
func (f *FlatTree) IsLeafNode(n int32) bool { return f.left[n] == n }

// LeftChild and RightChild return node n's children (n itself for leaves).
func (f *FlatTree) LeftChild(n int32) int32  { return f.left[n] }
func (f *FlatTree) RightChild(n int32) int32 { return f.right[n] }

// Label returns node n's class label.
func (f *FlatTree) Label(n int32) int { return int(f.label[n]) }

// GoesLeft evaluates node n's routing predicate on a tuple. It is the
// scalar form of the kernel predicate, exposed so tree-shaped batch code
// outside this package (the skeleton phase's sample partition in core)
// routes with the same compiled criteria as the inference path.
func (f *FlatTree) GoesLeft(n int32, tp data.Tuple) bool {
	v := tp.Values[f.attr[n]]
	code := uint(v)
	bit := f.subset[n] >> (code & 63) & 1
	if code > 63 {
		bit = 0
	}
	return bit != 0 || v <= f.thresh[n]
}

// Classify routes one tuple to a leaf and returns its label. It is
// bit-identical to Tree.Classify on the source tree.
func (f *FlatTree) Classify(tp data.Tuple) int {
	n := int32(0)
	for f.left[n] != n {
		v := tp.Values[f.attr[n]]
		code := uint(v)
		bit := f.subset[n] >> (code & 63) & 1
		if code > 63 {
			bit = 0
		}
		next := f.right[n]
		if bit != 0 {
			next = f.left[n]
		}
		if v <= f.thresh[n] {
			next = f.left[n]
		}
		n = next
	}
	return int(f.label[n])
}

// ClassifyScratch holds the per-depth row-index partitions of one
// goroutine's chunk classification. The partition written while routing a
// chunk through depth d stays live while the children route with the
// buffers of depth d+1 and below — the same discipline as the cleanup
// scan's routeScratch. Buffers are grown on first use and reused for every
// subsequent chunk, so the steady state allocates nothing. A scratch is
// single-goroutine state; the predictor keeps one per worker.
type ClassifyScratch struct {
	levels [][]int32
}

// NewClassifyScratch returns an empty scratch; buffers are sized lazily by
// the first chunks routed through it.
func NewClassifyScratch() *ClassifyScratch { return &ClassifyScratch{} }

// at returns the index buffer for a recursion depth, sized to rows. One
// buffer serves both partition halves: the left half grows from the front
// and the right half from the back.
func (sc *ClassifyScratch) at(depth, rows int) []int32 {
	for len(sc.levels) <= depth {
		sc.levels = append(sc.levels, nil)
	}
	if cap(sc.levels[depth]) < rows {
		sc.levels[depth] = make([]int32, rows)
	}
	return sc.levels[depth][:rows]
}

// scratchPool recycles ClassifyChunk's scratch so steady-state chunk
// classification allocates nothing.
var scratchPool = sync.Pool{
	New: func() any { return NewClassifyScratch() },
}

// ClassifyChunk routes every row of the chunk to a leaf and writes the
// labels into out, which must have at least ch.Len() entries. Scratch is
// pooled; the steady state performs zero allocations. Safe for concurrent
// use.
func (f *FlatTree) ClassifyChunk(ch *data.Chunk, out []int) {
	if ch.Len() == 0 {
		return
	}
	sc := scratchPool.Get().(*ClassifyScratch)
	f.ClassifyChunkScratch(ch, out, sc)
	scratchPool.Put(sc)
}

// ClassifyChunkScratch is ClassifyChunk with caller-owned scratch, for
// callers that manage per-worker scratch themselves — the parallel
// predictor's workers and the benchmarks use it to keep the hot loop free
// of pool traffic.
func (f *FlatTree) ClassifyChunkScratch(ch *data.Chunk, out []int, sc *ClassifyScratch) {
	if ch.Len() == 0 {
		return
	}
	// Trim (and bounds-check) out to the chunk length up front: the
	// kernel's raw-pointer stores rely on every row index being a valid
	// index into out.
	f.routeNode(ch, 0, nil, out[:ch.Len()], sc, 0)
}

// routeNode is the batch router: it processes the chunk rows named by idx
// (all rows when idx is nil) at node n, writing leaf labels into out as
// rows arrive at leaves. An internal node partitions its batch in one pass
// over its split column — the column pointer, threshold and subset are
// hoisted out of the loop, so the inner loop touches exactly one
// contiguous column and two index buffers — and recurses with the child
// batches. Rows leave the active set the moment they reach a leaf, so the
// total work tracks the sum of actual root-to-leaf path lengths rather
// than Depth()·rows, and each node's column slice stays hot across the
// whole batch (the chunk router's level-synchronous descent, DESIGN.md
// §11, applied to the read path). Batches that shrink below descendCutoff
// switch to a per-row descent: deep in a large tree most nodes see only a
// handful of rows, where the per-node partition setup costs more than
// simply walking those rows to their leaves.
//
// The split predicate stays the unified form documented on FlatTree:
// numeric nodes (subset == 0) test v <= thresh with NaN routing right, and
// categorical nodes (thresh == NaN, so the threshold term can never fire)
// test the subset bit with out-of-range codes routing right — bit-exact
// with Tree.Classify in both arms.
//
// The inner loops index through raw pointers (unsafe.Add) instead of
// slices: the partition cursors advance data-dependently, so the compiler
// cannot prove any of the five slice accesses per row in bounds, and the
// resulting checks cost ~30% of the kernel. Every access is bounded by
// construction — callers establish len(out) >= ch.Len() and routeNode
// maintains the rest:
//
//   - idx entries are row numbers previously produced by a range loop
//     over a column of ch, so 0 <= r < ch.Len() == len(col) <= len(out);
//   - the left and right halves of the partition buffer each hold m =
//     batch-size entries, and after k rows the cursors satisfy
//     nl+nr == k < m, so both stores land below m.
func (f *FlatTree) routeNode(ch *data.Chunk, n int32, idx []int32, out []int, sc *ClassifyScratch, depth int) {
	if f.left[n] == n {
		lbl := int(f.label[n])
		if idx == nil {
			out = out[:ch.Len()]
			for i := range out {
				out[i] = lbl
			}
			return
		}
		for _, r := range idx {
			out[r] = lbl
		}
		return
	}
	if idx != nil && len(idx) <= descendCutoff {
		f.descend(ch, n, idx, out)
		return
	}
	col := ch.Col(int(f.attr[n]))
	ln, rn := f.left[n], f.right[n]
	su, th := f.subset[n], f.thresh[n]
	cb := unsafe.Pointer(unsafe.SliceData(col))
	ob := unsafe.Pointer(unsafe.SliceData(out))
	const (
		szF = unsafe.Sizeof(float64(0))
		szI = unsafe.Sizeof(int32(0))
		szO = unsafe.Sizeof(int(0))
	)
	// Bottom-level fast path: when both children are leaves — the common
	// case for the deepest level, which a full-depth workload visits once
	// per row — the predicate selects directly between the two labels and
	// writes out in one pass, skipping the partition buffers and the leaf
	// recursion entirely.
	if f.left[ln] == ln && f.left[rn] == rn {
		ll, rl := int(f.label[ln]), int(f.label[rn])
		i := 0
		if useAVX512 && idx != nil && len(idx) >= avxMinBatch {
			if su != 0 {
				leafPairSubIdxAVX512(&col[0], &idx[0], len(idx), su, &out[0], int64(ll), int64(rl))
			} else {
				leafPairIdxAVX512(&col[0], &idx[0], len(idx), th, &out[0], int64(ll), int64(rl))
			}
			i = len(idx) &^ 15
		}
		if su != 0 {
			if idx == nil {
				for r, v := range col {
					code := uint(v)
					bit := su >> (code & 63) & 1
					if code > 63 {
						bit = 0
					}
					lbl := rl
					if bit != 0 {
						lbl = ll
					}
					*(*int)(unsafe.Add(ob, uintptr(r)*szO)) = lbl
				}
			} else {
				for _, r := range idx[i:] {
					v := *(*float64)(unsafe.Add(cb, uintptr(uint32(r))*szF))
					code := uint(v)
					bit := su >> (code & 63) & 1
					if code > 63 {
						bit = 0
					}
					lbl := rl
					if bit != 0 {
						lbl = ll
					}
					*(*int)(unsafe.Add(ob, uintptr(uint32(r))*szO)) = lbl
				}
			}
		} else {
			if idx == nil {
				for r, v := range col {
					lbl := rl
					if v <= th {
						lbl = ll
					}
					*(*int)(unsafe.Add(ob, uintptr(r)*szO)) = lbl
				}
			} else {
				for _, r := range idx[i:] {
					v := *(*float64)(unsafe.Add(cb, uintptr(uint32(r))*szF))
					lbl := rl
					if v <= th {
						lbl = ll
					}
					*(*int)(unsafe.Add(ob, uintptr(uint32(r))*szO)) = lbl
				}
			}
		}
		return
	}
	// General case: a branch-free partition. Every row's index is stored
	// to the head of both child lists and the predicate advances exactly
	// one of the two cursors, so the loop carries no data-dependent branch
	// to mispredict — on a mixed batch the routing direction is close to a
	// coin flip, and mispredictions, not arithmetic, are what cap a
	// branching partition. The left list grows from the front of one
	// shared buffer and the right list from its midpoint.
	m := len(idx)
	if idx == nil {
		m = len(col)
	}
	buf := sc.at(depth, 2*m)
	left, right := buf[:m], buf[m:]
	lb := unsafe.Pointer(unsafe.SliceData(left))
	rb := unsafe.Pointer(unsafe.SliceData(right))
	var nl, nr int
	if su != 0 {
		// Categorical split: same kernel shape as the numeric branch
		// below, with the subset-bit predicate.
		i := 0
		if useAVX512 && m >= avxMinBatch {
			if idx == nil {
				nl, nr = partitionSubSeqAVX512(&col[0], m, su, &left[0], &right[0])
			} else {
				nl, nr = partitionSubIdxAVX512(&col[0], &idx[0], m, su, &left[0], &right[0])
			}
			i = m &^ 15
		}
		if idx == nil {
			for ; i < m; i++ {
				v := *(*float64)(unsafe.Add(cb, uintptr(i)*szF))
				code := uint(v)
				bit := su >> (code & 63) & 1
				if code > 63 {
					bit = 0
				}
				*(*int32)(unsafe.Add(lb, uintptr(nl)*szI)) = int32(i)
				*(*int32)(unsafe.Add(rb, uintptr(nr)*szI)) = int32(i)
				nl += int(bit)
				nr += int(bit ^ 1)
			}
		} else {
			for _, r := range idx[i:] {
				v := *(*float64)(unsafe.Add(cb, uintptr(uint32(r))*szF))
				code := uint(v)
				bit := su >> (code & 63) & 1
				if code > 63 {
					bit = 0
				}
				*(*int32)(unsafe.Add(lb, uintptr(nl)*szI)) = r
				*(*int32)(unsafe.Add(rb, uintptr(nr)*szI)) = r
				nl += int(bit)
				nr += int(bit ^ 1)
			}
		}
	} else {
		// Numeric split: the AVX-512 kernels (flat_amd64.s) partition 16
		// rows per iteration — VCMPPD LE_OQ mask, VPCOMPRESSD into both
		// lists — and return the cursors after the largest multiple of 16
		// rows; the scalar loop finishes the tail. On machines without
		// AVX-512 (or other architectures) the scalar loop handles the
		// whole batch and is the reference the parity test holds the
		// assembly to.
		i := 0
		if useAVX512 && m >= avxMinBatch {
			if idx == nil {
				nl, nr = partitionSeqAVX512(&col[0], m, th, &left[0], &right[0])
			} else {
				nl, nr = partitionIdxAVX512(&col[0], &idx[0], m, th, &left[0], &right[0])
			}
			i = m &^ 15
		}
		if idx == nil {
			for ; i < m; i++ {
				v := *(*float64)(unsafe.Add(cb, uintptr(i)*szF))
				b := 0
				if v <= th {
					b = 1
				}
				*(*int32)(unsafe.Add(lb, uintptr(nl)*szI)) = int32(i)
				*(*int32)(unsafe.Add(rb, uintptr(nr)*szI)) = int32(i)
				nl += b
				nr += 1 - b
			}
		} else {
			for _, r := range idx[i:] {
				v := *(*float64)(unsafe.Add(cb, uintptr(uint32(r))*szF))
				b := 0
				if v <= th {
					b = 1
				}
				*(*int32)(unsafe.Add(lb, uintptr(nl)*szI)) = r
				*(*int32)(unsafe.Add(rb, uintptr(nr)*szI)) = r
				nl += b
				nr += 1 - b
			}
		}
	}
	if nl > 0 {
		f.routeNode(ch, ln, left[:nl], out, sc, depth+1)
	}
	if nr > 0 {
		f.routeNode(ch, rn, right[:nr], out, sc, depth+1)
	}
}

// avxMinBatch is the batch size at which routeNode hands the partition
// to the AVX-512 kernels; below it the call and mask overhead outweigh
// the vector win and the scalar loop runs alone.
const avxMinBatch = 16

// descendCutoff is the batch size below which routeNode stops
// partitioning and walks each remaining row to its leaf individually. The
// crossover sits where one node's partition setup (call, scratch lookup,
// column slicing) outweighs the batched loop's per-row savings.
const descendCutoff = 16

// descend classifies a small batch row by row from an interior starting
// node: each row walks the flat arrays to its leaf — children are
// adjacent, so the next node is left[n] + 0-or-1 and the walk needs no
// right-child load — and writes its label directly into out.
func (f *FlatTree) descend(ch *data.Chunk, start int32, idx []int32, out []int) {
	left, attr, thresh, subset := f.left, f.attr, f.thresh, f.subset
	for _, r := range idx {
		n := start
		for left[n] != n {
			v := ch.Value(int(r), int(attr[n]))
			code := uint(v)
			bit := subset[n] >> (code & 63) & 1
			if code > 63 {
				bit = 0
			}
			b := int32(bit)
			if v <= thresh[n] {
				b = 1
			}
			n = left[n] + 1 - b
		}
		out[r] = int(f.label[n])
	}
}
