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

// Spilled reports whether some of the bag's additions overflowed its
// memory budget into the temporary file.
func (b *TupleBag) Spilled() bool { return b.add.SpilledTuples() > 0 }

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
// nil), exactly as a loop of Add over them would. With no pending
// removals — the steady state of the cleanup scan — the rows are copied
// column-wise in one batch. With removals pending (the streaming-update
// path after deletes), cancelRows cancels rows against them and the
// survivors are appended in one columnar batch.
func (b *TupleBag) AddChunkRows(ch *Chunk, idx []int32) error {
	if b.removed == 0 {
		return b.add.AppendChunkRows(ch, idx)
	}
	if ch.selected(idx) == 0 {
		return nil
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	surv := sc.cancelRows(b.removals, &b.removed, ch, idx)
	if len(surv) == 0 {
		return nil
	}
	return b.add.AppendChunkRows(ch, surv)
}

// cancelRows matches the chunk rows named by idx (all rows when idx is
// nil), in order, against the removals in pending: each row that matches
// consumes one removal and decrements *left. It returns the indices of
// the rows that survive, in sc's reused storage. The rows are hashed
// column-wise once (Chunk.HashRows, the bucket key Remove and
// RemoveChunkRows store); only a row whose bucket is non-empty pays the
// gather and the equality walk — the common case, when inserts and
// expired deletes carry disjoint data, costs one map probe per row.
func (sc *batchScratch) cancelRows(pending map[uint64][]removalEntry, left *int64, ch *Chunk, idx []int32) []int32 {
	sc.hashes = ch.HashRows(sc.hashes, idx)
	if cap(sc.row) < ch.Width() {
		sc.row = make([]float64, ch.Width())
	}
	t := Tuple{Values: sc.row[:ch.Width()]}
	if cap(sc.surv) < len(sc.hashes) {
		sc.surv = make([]int32, 0, len(sc.hashes))
	}
	surv := sc.surv[:0] // never nil: an empty result means every row cancelled
	for j, h := range sc.hashes {
		r := int32(j)
		if idx != nil {
			r = idx[j]
		}
		if *left > 0 && len(pending[h]) > 0 {
			ch.Gather(int(r), t.Values)
			t.Class = ch.Class(int(r))
			if consumeRemovalH(pending, h, t) {
				*left--
				continue
			}
		}
		surv = append(surv, r)
	}
	sc.surv = surv
	return surv
}

// Remove queues the deletion of one occurrence of t. The occurrence must
// exist; a dangling removal is detected (and reported as an error) by the
// next ForEach/ForEachChunk/Compact.
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
	if ch.selected(idx) == 0 {
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

// bagScan is the bag's one chunk iterator. It streams the addition
// buffer in order and reports, for each chunk read, the rows that survive
// the pending removals: a removal cancels the first matching occurrence in
// scan order. It consumes a private copy of the removal buckets, so
// scanning never changes the bag. ForEachChunk and the bag's Source view
// are built on it.
type bagScan struct {
	sc      ChunkScanner
	pending map[uint64][]removalEntry
	left    int64
	scratch batchScratch
	span    []int32
}

func (b *TupleBag) scan() (*bagScan, error) {
	sc, err := b.add.ScanChunks()
	if err != nil {
		return nil, err
	}
	s := &bagScan{sc: sc, left: b.removed}
	if s.left > 0 {
		// Copy the bucket slices (entries share tuple storage with the
		// originals) because consuming a removal mutates counts.
		s.pending = make(map[uint64][]removalEntry, len(b.removals))
		for h, bucket := range b.removals {
			s.pending[h] = append([]removalEntry(nil), bucket...)
		}
	}
	return s, nil
}

// next appends the buffer's next rows to dst and returns the indices of
// the appended rows that survive the removals, or nil when all of them
// do. At the end of the buffer it returns io.EOF — or an error, if a
// removal matched no row.
func (s *bagScan) next(dst *Chunk) ([]int32, error) {
	from := dst.Len()
	if err := s.sc.NextChunk(dst); err == io.EOF {
		if s.left > 0 {
			return nil, fmt.Errorf("data: %d removal(s) did not match any tuple in the bag", s.left)
		}
		return nil, io.EOF
	} else if err != nil {
		return nil, err
	}
	n := dst.Len()
	if s.left == 0 || from >= n {
		return nil, nil
	}
	var idx []int32
	if from > 0 {
		s.span = s.span[:0]
		for r := from; r < n; r++ {
			s.span = append(s.span, int32(r))
		}
		idx = s.span
	}
	surv := s.scratch.cancelRows(s.pending, &s.left, dst, idx)
	if len(surv) == n-from {
		return nil, nil
	}
	return surv, nil
}

// NextChunk implements ChunkScanner for the Source view: it fills dst
// with surviving rows only, compacting away the rows removals cancel.
func (s *bagScan) NextChunk(dst *Chunk) error {
	start := dst.Len()
	for !dst.Full() {
		from := dst.Len()
		idx, err := s.next(dst)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if idx != nil {
			dst.keepRows(from, idx)
		}
	}
	if dst.Len() == start {
		return io.EOF
	}
	return nil
}

func (s *bagScan) Close() error { return s.sc.Close() }

// ForEachChunk iterates the net content of the bag (additions minus
// removals) chunk by chunk: fn receives each chunk of the buffer and the
// indices of its rows that survive the pending removals, or nil when all
// of them do; chunks whose rows all cancel are skipped. Both are only
// valid during the call. A removal that matches no row is reported as an
// error once the buffer is exhausted.
func (b *TupleBag) ForEachChunk(fn func(ch *Chunk, idx []int32) error) error {
	s, err := b.scan()
	if err != nil {
		return err
	}
	defer s.Close()
	ch := NewChunk(len(b.Schema().Attributes), int(min(max(b.add.Len(), 1), DefaultChunkRows)))
	for {
		ch.Reset()
		idx, err := s.next(ch)
		if err == io.EOF {
			return s.Close()
		}
		if err != nil {
			return err
		}
		if ch.Len() == 0 || idx != nil && len(idx) == 0 {
			continue
		}
		if err := fn(ch, idx); err != nil {
			return err
		}
	}
}

// Compact rewrites the bag so pending removals are applied physically.
// Call it when the removal backlog grows large.
func (b *TupleBag) Compact() error {
	if b.removed == 0 {
		return nil
	}
	fresh := NewSpillBufferEnv(b.add.schema, b.add.env)
	err := b.ForEachChunk(fresh.AppendChunkRows)
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
// Scans of the view stream the buffer, filtering pending removals chunk
// by chunk, so they hold no more than a chunk of the bag in memory. The
// bag must not be mutated while scans of the view are open.
func (b *TupleBag) Source() Source { return &bagSource{b} }

type bagSource struct{ b *TupleBag }

func (s *bagSource) Schema() *Schema        { return s.b.Schema() }
func (s *bagSource) Count() (int64, bool)   { return s.b.Len(), true }
func (s *bagSource) Scan() (Scanner, error) { return ScanRows(s) }

func (s *bagSource) ScanChunks() (ChunkScanner, error) {
	if s.b.removed == 0 {
		return s.b.add.ScanChunks()
	}
	return s.b.scan()
}
