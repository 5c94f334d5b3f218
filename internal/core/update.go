package core

import (
	"io"
	"sync"
	"sync/atomic"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/obs"
)

// The chunk router streams columnar batches down the tree with a signed
// weight w: +1 for the cleanup scan (scan.go) and Insert, -1 for Delete.
// The paper streams an inserted or deleted chunk "exactly as in the
// cleanup phase", so one router serves all three, and it also moves the
// stuck sets after verification (process.go): a push descends a node's
// pending chunks into its children at +1, and a migration descends the
// moved rows at -1 into the side they leave and at +1 into the side they
// join. It descends level-synchronously instead of once per tuple: each
// node applies the
// signed batch kernels (CatAVC.AddBatch, Histogram.AddBatch,
// Moments.AddChunk), partitions the batch three ways by its coarse
// criterion, and recurses with the partition's index sets; a whole chunk
// whose rows all went one way, none stuck, recurses whole. Each kernel's
// working set (one attribute column plus one statistic) stays hot across
// thousands of rows, and the steady state is allocation-free: chunks are
// reused, index batches live in per-depth scratch buffers, and stuck and
// leaf rows are copied into the buffers' slab arenas (or a leaf family's
// columns).
//
// Every counter a tuple's root-to-stick path touches in the per-tuple
// oracle (Tree.route, in the package's tests) is applied here, weighted,
// from the batch. All statistics are signed integer counts and the
// buffers receive their rows per node in stream order, so the router and
// the oracle leave identical state, which TestUpdateChunkedMatchesRow and
// TestScanModesAgree pin down.
//
// Concurrency: disjoint subtrees share no mutable state (each node's
// counters, statistics, and buffers are touched only while routing through
// that node), so once a batch is partitioned the two children can be
// routed concurrently. When both sides reach forkMinRows rows, the two
// descents are one fork on the operation's pool (inmem.Fork): the left
// one keeps the caller's partition scratch, the right one takes its own.
// The shared substrate (the memory budget, iostats, the metrics registry)
// is internally synchronized. The resulting state is identical at every
// Parallelism setting: every per-node mutation is performed by the single
// descent that owns that subtree for the batch, in the same order as the
// sequential descent. The fork joins both descents before it returns, so
// a chunk is routed completely before the next one, and every buffer
// receives its rows in stream order.

// forkMinRows is the least index set, per side, whose descents are
// forked: below this, the handoff costs more than it saves. It is below
// the fits' threshold (inmem's forkRows, 4,096), which a default chunk
// of 4,096 rows could never reach on both sides.
const forkMinRows = 1024

// chunkRouter carries one stream's descent: the signed weight, the tree's
// scratch pool for forked descents, and what the stream routed.
type chunkRouter struct {
	w       int64
	scratch *sync.Pool

	// tuples and chunks count what the stream routed; skips counts its
	// whole-chunk descents (atomic: forked descents count concurrently).
	tuples, chunks int64
	skips          atomic.Int64
}

func (t *Tree) newChunkRouter(w int64) *chunkRouter {
	return &chunkRouter{w: w, scratch: &t.scratch}
}

// stream routes every chunk of src down the subtree rooted at root with
// r's weight, on the pool worker wk, checking each chunk's domain before
// the router changes any statistic. sc is the caller's partition
// scratch. The chunks
// come through the prefetch/decode pipeline on a columnar file (the plain
// chunked scan otherwise), and its stage report lands in sp (nil ok) and
// the pipeline.* registry counters.
func (t *Tree) stream(r *chunkRouter, src data.Source, root *bnode, sc *routeScratch, sp *obs.Span, wk *inmem.Worker) error {
	csc, err := data.ScanChunksPipelined(src, t.pipelineObserver())
	if err != nil {
		return err
	}
	ch := data.NewChunk(len(t.schema.Attributes), t.cfg.chunkRows())
	for err == nil {
		ch.Reset()
		if err = csc.NextChunk(ch); err != nil {
			if err == io.EOF {
				err = nil
			}
			break
		}
		if ch.Len() == 0 {
			continue
		}
		if err = t.schema.CheckChunkDomain(ch); err != nil {
			break
		}
		r.tuples += int64(ch.Len())
		r.chunks++
		err = r.descend(root, ch, nil, sc, 0, wk)
	}
	if cerr := csc.Close(); err == nil {
		err = cerr
	}
	t.recordPipeline(sp, csc)
	return err
}

// descend applies the chunk rows named by idx (all rows when idx is nil)
// to the subtree rooted at n, on the pool worker wk. depth indexes sc's
// per-level scratch buffers, not the node's depth in the full tree
// (forked descents restart at 0 with their own scratch).
func (r *chunkRouter) descend(n *bnode, ch *data.Chunk, idx []int32, sc *routeScratch, depth int, wk *inmem.Worker) error {
	w := r.w
	classes := ch.Classes()
	if idx == nil {
		for _, c := range classes {
			n.classCounts[c] += w
		}
	} else {
		for _, i := range idx {
			n.classCounts[classes[i]] += w
		}
	}
	if n.isLeaf() {
		if idx == nil && ch.Len() == 0 {
			return nil
		}
		n.dirty = true
		return n.family.apply(ch, idx, w)
	}
	for i, cc := range n.catCounts {
		if cc != nil {
			cc.AddBatch(ch.Col(i), classes, idx, w)
		}
	}
	for i, h := range n.hist {
		if h != nil {
			h.AddBatch(ch.Col(i), classes, idx, w)
		}
	}
	if n.moments != nil {
		n.moments.AddChunk(ch, idx, w)
	}
	c := n.coarse
	col := ch.Col(c.attr)
	left, right, stuck := sc.at(depth)
	if c.kind == data.Categorical {
		// Same predicate as Tree.route and the compiled inference layout:
		// codes outside [0, 64) or outside the subset take the pinned
		// right edge.
		if idx == nil {
			for i, v := range col {
				if code := uint(v); code < 64 && c.subset&(1<<code) != 0 {
					left = append(left, int32(i))
				} else {
					right = append(right, int32(i))
				}
			}
		} else {
			for _, i := range idx {
				if code := uint(col[i]); code < 64 && c.subset&(1<<code) != 0 {
					left = append(left, i)
				} else {
					right = append(right, i)
				}
			}
		}
	} else {
		// The routing counters mirror Tree.route exactly: rows routed left
		// of the interval feed lowCounts (and eqLow at the endpoint), rows
		// routed right feed highCounts, fused into the partition pass. Any
		// delete-stuck continuation rows are appended to the descent sets
		// only after this pass — continuation rows descend without touching
		// the interval counters, exactly as the row path's routedThr branch
		// does.
		if idx == nil {
			for i, v := range col {
				switch {
				case v <= c.lo:
					left = append(left, int32(i))
					n.lowCounts[classes[i]] += w
					if v == c.lo {
						n.eqLow += w
					}
				case v > c.hi || v != v:
					// NaN takes the pinned missing-value edge (right),
					// never the stuck set.
					right = append(right, int32(i))
					n.highCounts[classes[i]] += w
				default:
					stuck = append(stuck, int32(i))
				}
			}
		} else {
			for _, i := range idx {
				v := col[i]
				switch {
				case v <= c.lo:
					left = append(left, i)
					n.lowCounts[classes[i]] += w
					if v == c.lo {
						n.eqLow += w
					}
				case v > c.hi || v != v:
					right = append(right, i)
					n.highCounts[classes[i]] += w
				default:
					stuck = append(stuck, i)
				}
			}
		}
		if len(stuck) > 0 {
			if w > 0 {
				// Inside the confidence interval: the rows stick at n,
				// copied from the chunk into the bag's arena in stream
				// order.
				if err := n.pending.AddChunkRows(ch, stuck); err != nil {
					return err
				}
			} else {
				// Deleting stuck tuples: they were pushed down by routedThr
				// in an earlier processing pass; undo the bag entries, then
				// continue each removal downward along the path its push
				// took.
				if err := n.pushed.RemoveChunkRows(ch, stuck); err != nil {
					return err
				}
				for _, i := range stuck {
					if col[i] <= n.routedThr {
						left = append(left, i)
					} else {
						right = append(right, i)
					}
				}
			}
		}
	}
	return r.children(n, ch, left, right, idx == nil && len(stuck) == 0, sc, depth+1, wk)
}

// children descends the chunk rows named by left into n.left and those
// named by right into n.right, on wk; depth indexes sc's scratch. whole
// reports that the chunk arrived whole and none of its rows stuck, so
// left and right together name every row: then a chunk whose rows all
// went one way descends into that child whole, and the kernels and
// copies below take their contiguous idx == nil paths. Scans, updates
// and pushes all descend through this one rule. When both sides reach
// forkMinRows, the two descents are one fork: the left one continues in
// sc, the right one partitions with its own scratch.
func (r *chunkRouter) children(n *bnode, ch *data.Chunk, left, right []int32, whole bool, sc *routeScratch, depth int, wk *inmem.Worker) error {
	if whole && len(right) == 0 {
		r.skips.Add(1)
		return r.descend(n.left, ch, nil, sc, depth, wk)
	}
	if whole && len(left) == 0 {
		r.skips.Add(1)
		return r.descend(n.right, ch, nil, sc, depth, wk)
	}
	if wk != nil && len(left) >= forkMinRows && len(right) >= forkMinRows {
		return inmem.Fork(wk, 2, func(wk *inmem.Worker, i int) error {
			if i == 0 {
				return r.descend(n.left, ch, left, sc, depth, wk)
			}
			rsc := r.scratch.Get().(*routeScratch)
			defer r.scratch.Put(rsc)
			return r.descend(n.right, ch, right, rsc, 0, wk)
		})
	}
	if len(left) > 0 {
		if err := r.descend(n.left, ch, left, sc, depth, wk); err != nil {
			return err
		}
	}
	if len(right) > 0 {
		return r.descend(n.right, ch, right, sc, depth, wk)
	}
	return nil
}

// routeScratch holds the per-depth index buffers of one
// level-synchronous descent: the partition written at depth d stays live
// while the children recurse with the buffers of depth d+1 and below.
// Buffers are allocated once per depth and reused for every chunk; the
// tree's pool (Tree.scratch) recycles them across streams, pushes and
// forked descents.
type routeScratch struct {
	rows   int
	levels [][3][]int32 // per depth: left, right, stuck
}

func newRouteScratch(rows int) *routeScratch { return &routeScratch{rows: rows} }

// at returns empty left/right/stuck index buffers for a recursion depth.
func (sc *routeScratch) at(depth int) (left, right, stuck []int32) {
	for len(sc.levels) <= depth {
		sc.levels = append(sc.levels, [3][]int32{
			make([]int32, 0, sc.rows),
			make([]int32, 0, sc.rows),
			make([]int32, 0, sc.rows),
		})
	}
	l := &sc.levels[depth]
	return l[0][:0], l[1][:0], l[2][:0]
}
