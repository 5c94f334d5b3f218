package data

import (
	"fmt"
	"io"
	"sync"
)

// batchScratch holds the transient per-call buffers of the batch
// add/remove paths — row hashes, survivor indices, one gathered row —
// pooled so steady-state streaming updates stop paying an allocation
// (and its zeroing) per (node, chunk) call.
type batchScratch struct {
	hashes []uint64
	surv   []int32
	row    []float64
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// TupleBag is a multiset of tuples supporting additions and deletions, with
// the additions held in a SpillBuffer (budgeted memory, temp-file
// overflow) and deletions tracked as a pending-removal multiset that is
// subtracted lazily on iteration.
//
// BOAT uses bags for the sets S_n of tuples stuck inside confidence
// intervals and for the stored families of leaf nodes; the deletion side
// implements the paper's dynamic environment where expired chunks are
// removed from the training dataset (Section 4).
type TupleBag struct {
	add      *SpillBuffer
	removals map[uint64][]removalEntry
	removed  int64
}

// removalEntry is one distinct tuple awaiting removal, bucketed by its
// Hash64. The hash-keyed buckets (with an Equal check against entries)
// replace a map keyed by Tuple.Key(), whose string key cost one
// allocation per lookup on the Add fast path.
type removalEntry struct {
	t     Tuple
	count int64
}

// consumeRemoval cancels one pending removal matching t, reporting whether
// a match was found.
func consumeRemoval(pending map[uint64][]removalEntry, t Tuple) bool {
	return consumeRemovalH(pending, t.Hash64(), t)
}

// consumeRemovalH is consumeRemoval with the bucket key already computed —
// the batch paths hash whole chunks column-wise (Chunk.HashRows) and pass
// the per-row keys in.
func consumeRemovalH(pending map[uint64][]removalEntry, h uint64, t Tuple) bool {
	bucket := pending[h]
	for i := range bucket {
		if bucket[i].t.Equal(t) {
			if bucket[i].count > 1 {
				bucket[i].count--
				return true
			}
			bucket[i] = bucket[len(bucket)-1]
			if bucket = bucket[:len(bucket)-1]; len(bucket) == 0 {
				delete(pending, h)
			} else {
				pending[h] = bucket
			}
			return true
		}
	}
	return false
}

// NewTupleBag creates an empty bag over the real filesystem with default
// retries; parameters as NewSpillBuffer.
func NewTupleBag(schema *Schema, dir string, budget *MemBudget, rec SpillRecorder) *TupleBag {
	return NewTupleBagEnv(schema, SpillEnv{Dir: dir, Budget: budget, Rec: rec})
}

// NewTupleBagEnv creates an empty bag whose spill buffer writes through
// env; parameters as NewSpillBufferEnv.
func NewTupleBagEnv(schema *Schema, env SpillEnv) *TupleBag {
	return &TupleBag{add: NewSpillBufferEnv(schema, env)}
}

// Schema returns the bag's schema.
func (b *TupleBag) Schema() *Schema { return b.add.Schema() }

// Len returns the net multiplicity-weighted size.
func (b *TupleBag) Len() int64 { return b.add.Len() - b.removed }

// PendingRemovals returns the number of queued deletions.
func (b *TupleBag) PendingRemovals() int64 { return b.removed }

// Err returns the poison cause of the underlying spill buffer: non-nil
// after an overflow write failed for good. A poisoned bag refuses Add but
// its contents remain iterable.
func (b *TupleBag) Err() error { return b.add.Err() }

// Add copies t into the bag. If a removal of an identical tuple is
// pending, the two cancel out.
func (b *TupleBag) Add(t Tuple) error {
	if b.removed > 0 && consumeRemoval(b.removals, t) {
		b.removed--
		return nil
	}
	return b.add.Append(t)
}

// AddChunkRows adds the chunk rows named by idx (all rows when idx is
// nil). With no pending removals — the steady state of the cleanup scan —
// the rows are copied column-wise in one batch. With removals pending (the
// streaming-update path after deletes), the batch is hashed column-wise
// once, each row whose hash bucket is non-empty is gathered through one
// reused buffer to test for cancellation, and the surviving rows are
// appended in one columnar batch — a row whose bucket is empty (the common
// case when inserts and expired deletes carry disjoint data) never pays
// the gather or the equality walk, only the map probe.
func (b *TupleBag) AddChunkRows(ch *Chunk, idx []int32) error {
	if b.removed == 0 {
		return b.add.AppendChunkRows(ch, idx)
	}
	n := ch.Len()
	if idx != nil {
		n = len(idx)
	}
	if n == 0 {
		return nil
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	hashes := ch.HashRows(sc.hashes, idx)
	sc.hashes = hashes
	if cap(sc.row) < ch.Width() {
		sc.row = make([]float64, ch.Width())
	}
	buf := sc.row[:ch.Width()]
	t := Tuple{Values: buf}
	if cap(sc.surv) < n {
		sc.surv = make([]int32, 0, n)
	}
	surv := sc.surv[:0]
	cancels := func(j, r int) bool {
		if b.removed <= 0 {
			return false
		}
		h := hashes[j]
		if len(b.removals[h]) == 0 {
			return false
		}
		ch.Gather(r, buf)
		t.Class = ch.Class(r)
		if consumeRemovalH(b.removals, h, t) {
			b.removed--
			return true
		}
		return false
	}
	if idx == nil {
		for r := 0; r < n; r++ {
			if !cancels(r, r) {
				surv = append(surv, int32(r))
			}
		}
	} else {
		for j, r := range idx {
			if !cancels(j, int(r)) {
				surv = append(surv, r)
			}
		}
	}
	sc.surv = surv
	if len(surv) == 0 {
		return nil
	}
	return b.add.AppendChunkRows(ch, surv)
}

// Remove queues the deletion of one occurrence of t. The occurrence must
// exist; a dangling removal is detected (and reported as an error) by the
// next ForEach/Materialize/Compact.
func (b *TupleBag) Remove(t Tuple) error {
	if b.removals == nil {
		b.removals = make(map[uint64][]removalEntry)
	}
	h := t.Hash64()
	bucket := b.removals[h]
	for i := range bucket {
		if bucket[i].t.Equal(t) {
			bucket[i].count++
			b.removed++
			return nil
		}
	}
	b.removals[h] = append(bucket, removalEntry{t: t.Clone(), count: 1})
	b.removed++
	return nil
}

// RemoveChunkRows queues the deletion of the chunk rows named by idx (all
// rows when idx is nil). It is exactly equivalent to calling Remove on
// each row's tuple, but batch-shaped: the bucket keys come from one
// column-wise hash pass over the chunk, and instead of cloning each new
// distinct tuple the entries reference rows of a single shared row-major
// snapshot of the batch — two allocations for the whole call where the
// row path pays one clone per distinct tuple.
func (b *TupleBag) RemoveChunkRows(ch *Chunk, idx []int32) error {
	n := ch.Len()
	if idx != nil {
		n = len(idx)
	}
	if n == 0 {
		return nil
	}
	if b.removals == nil {
		b.removals = make(map[uint64][]removalEntry)
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	hashes := ch.HashRows(sc.hashes, idx)
	sc.hashes = hashes
	// The snapshot itself is NOT pooled: the new entries reference its rows.
	rows := ch.GatherRows(idx)
	for j, t := range rows {
		h := hashes[j]
		bucket := b.removals[h]
		found := false
		for i := range bucket {
			if bucket[i].t.Equal(t) {
				bucket[i].count++
				found = true
				break
			}
		}
		if !found {
			b.removals[h] = append(bucket, removalEntry{t: t, count: 1})
		}
		b.removed++
	}
	return nil
}

// ForEach iterates the net content of the bag (additions minus removals).
// Tuples passed to fn are only valid during the call.
func (b *TupleBag) ForEach(fn func(Tuple) error) error {
	var pending map[uint64][]removalEntry
	left := b.removed
	if left > 0 {
		// Deep-copy the buckets (entries share tuple storage with the
		// originals) because consumeRemoval mutates counts.
		pending = make(map[uint64][]removalEntry, len(b.removals))
		for h, bucket := range b.removals {
			pending[h] = append([]removalEntry(nil), bucket...)
		}
	}
	sc, err := b.add.Scan()
	if err != nil {
		return err
	}
	defer sc.Close()
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for _, t := range batch {
			if left > 0 && consumeRemoval(pending, t) {
				left--
				continue
			}
			if err := fn(t); err != nil {
				return err
			}
		}
	}
	if left > 0 {
		return fmt.Errorf("data: %d removal(s) did not match any tuple in the bag", left)
	}
	return nil
}

// Materialize returns deep copies of the bag's net content. The copies
// share one backing array rather than paying one allocation per tuple.
func (b *TupleBag) Materialize() ([]Tuple, error) {
	width := len(b.Schema().Attributes)
	n := b.Len()
	if n < 0 {
		n = 0
	}
	out := make([]Tuple, 0, n)
	backing := make([]float64, 0, int(n)*width)
	err := b.ForEach(func(t Tuple) error {
		if cap(backing)-len(backing) < width {
			backing = make([]float64, 0, max(width*DefaultBatchSize, width))
		}
		start := len(backing)
		backing = append(backing, t.Values...)
		out = append(out, Tuple{Values: backing[start:len(backing):len(backing)], Class: t.Class})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Compact rewrites the bag so pending removals are applied physically.
// Call it when the removal backlog grows large.
func (b *TupleBag) Compact() error {
	if b.removed == 0 {
		return nil
	}
	fresh := NewSpillBufferEnv(b.add.schema, b.add.env)
	err := b.ForEach(fresh.Append)
	if err != nil {
		fresh.Close()
		return err
	}
	if err := b.add.Close(); err != nil {
		// The old buffer's contents were fully copied; a removal failure
		// must not lose the compacted bag, but it must surface.
		b.add = fresh
		b.removals = nil
		b.removed = 0
		return err
	}
	b.add = fresh
	b.removals = nil
	b.removed = 0
	return nil
}

// Reset empties the bag, keeping resources for reuse.
func (b *TupleBag) Reset() error {
	b.removals = nil
	b.removed = 0
	return b.add.Reset()
}

// Close releases all resources.
func (b *TupleBag) Close() error {
	b.removals = nil
	b.removed = 0
	return b.add.Close()
}

// Source returns a read-only Source view of the bag's net content.
// The bag must not be mutated while scans of the view are open.
func (b *TupleBag) Source() Source { return &bagSource{b} }

type bagSource struct{ b *TupleBag }

func (s *bagSource) Schema() *Schema      { return s.b.Schema() }
func (s *bagSource) Count() (int64, bool) { return s.b.Len(), true }

func (s *bagSource) Scan() (Scanner, error) {
	// Bags with no pending removals can stream straight from the buffer;
	// otherwise materialize through the removal filter.
	if s.b.removed == 0 {
		return s.b.add.Scan()
	}
	ts, err := s.b.Materialize()
	if err != nil {
		return nil, err
	}
	return &memScanner{tuples: ts}, nil
}
