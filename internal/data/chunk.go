package data

import (
	"io"
	"slices"
	"sync"
)

// Chunk is a columnar (structure-of-arrays) batch of tuples: one flat
// []float64 backing array holding every attribute column contiguously,
// plus an []int32 class column. The cleanup scan and the batched count
// kernels (CatAVC.AddBatch, Histogram.AddBatch, NumMoments.AddBatch)
// operate on chunks instead of individual Tuples, which removes the
// per-tuple allocation and per-tuple virtual-call overhead of the
// row-at-a-time path and keeps each kernel's working set (one attribute
// column plus one statistic) hot across thousands of rows.
//
// Layout: attribute a's column occupies vals[a*stride : a*stride+n] where
// stride is the chunk's row capacity, so Col(a) is a contiguous slice.
// A Chunk costs exactly two allocations regardless of capacity and is
// reusable via Reset; ChunkPool recycles chunks across scans.
type Chunk struct {
	width  int
	stride int
	n      int
	vals   []float64
	class  []int32
}

// DefaultChunkRows is the row capacity used by the built-in chunked scan
// paths when the caller does not choose one.
const DefaultChunkRows = 4096

// NewChunk allocates an empty chunk for tuples of the given width
// (attribute count) with capacity rows.
func NewChunk(width, rows int) *Chunk {
	if width < 1 {
		width = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &Chunk{
		width:  width,
		stride: rows,
		vals:   make([]float64, width*rows),
		class:  make([]int32, rows),
	}
}

// Len returns the number of rows currently held.
func (c *Chunk) Len() int { return c.n }

// Cap returns the row capacity.
func (c *Chunk) Cap() int { return c.stride }

// Width returns the attribute count.
func (c *Chunk) Width() int { return c.width }

// Full reports whether the chunk is at capacity.
func (c *Chunk) Full() bool { return c.n >= c.stride }

// Reset empties the chunk, keeping its storage.
func (c *Chunk) Reset() { c.n = 0 }

// Col returns attribute a's column: one value per row, contiguous.
func (c *Chunk) Col(a int) []float64 { return c.vals[a*c.stride : a*c.stride+c.n] }

// Classes returns the class-label column (one code per row).
func (c *Chunk) Classes() []int32 { return c.class[:c.n] }

// Value returns the value of attribute a in row r.
func (c *Chunk) Value(r, a int) float64 { return c.vals[a*c.stride+r] }

// Class returns the class label of row r.
func (c *Chunk) Class(r int) int { return int(c.class[r]) }

// AppendTuple transposes one row-major tuple into the columns. The chunk
// must not be full.
func (c *Chunk) AppendTuple(t Tuple) {
	r := c.n
	for a, v := range t.Values {
		c.vals[a*c.stride+r] = v
	}
	c.class[r] = int32(t.Class)
	c.n++
}

// Gather copies row r's values into dst (which must have length Width).
func (c *Chunk) Gather(r int, dst []float64) {
	for a := range dst {
		dst[a] = c.vals[a*c.stride+r]
	}
}

// AppendFrom bulk-appends rows [from, from+n) of src, which must have the
// same width; the copy is one contiguous memmove per column. The chunk
// must have room for n more rows.
func (c *Chunk) AppendFrom(src *Chunk, from, n int) {
	for a := 0; a < c.width; a++ {
		copy(c.vals[a*c.stride+c.n:], src.vals[a*src.stride+from:a*src.stride+from+n])
	}
	copy(c.class[c.n:], src.class[from:from+n])
	c.n += n
}

// AppendGather appends the rows of src selected by idx, column by column:
// each column is a gathered read from one hot source column and a
// sequential write, instead of a per-row strided scatter. Same width
// required; the chunk must have room for len(idx) more rows.
func (c *Chunk) AppendGather(src *Chunk, idx []int32) {
	n := len(idx)
	for a := 0; a < c.width; a++ {
		dst := c.vals[a*c.stride+c.n : a*c.stride+c.n+n]
		col := src.vals[a*src.stride:]
		for i, r := range idx {
			dst[i] = col[r]
		}
	}
	cls := c.class[c.n : c.n+n]
	for i, r := range idx {
		cls[i] = src.class[r]
	}
	c.n += n
}

// TupleCopy returns a freshly allocated row-major copy of row r.
func (c *Chunk) TupleCopy(r int) Tuple {
	vals := make([]float64, c.width)
	c.Gather(r, vals)
	return Tuple{Values: vals, Class: c.Class(r)}
}

// selected returns how many rows idx names (all rows when idx is nil).
func (c *Chunk) selected(idx []int32) int {
	if idx == nil {
		return c.n
	}
	return len(idx)
}

// rowsInto fills rows (one entry per row named by idx, all rows when idx
// is nil) with row-major copies whose values live in vals, which must hold
// len(rows)*Width values.
func (c *Chunk) rowsInto(rows []Tuple, vals []float64, idx []int32) {
	w := c.width
	for j := range rows {
		r := j
		if idx != nil {
			r = int(idx[j])
		}
		v := vals[j*w : (j+1)*w : (j+1)*w]
		c.Gather(r, v)
		rows[j] = Tuple{Values: v, Class: int(c.class[r])}
	}
}

// GatherRows returns row-major copies of the rows named by idx (all rows
// when idx is nil). All copies share one backing array — one allocation
// for the batch instead of one per row.
func (c *Chunk) GatherRows(idx []int32) []Tuple {
	n := c.selected(idx)
	if n == 0 {
		return nil
	}
	out := make([]Tuple, n)
	c.rowsInto(out, make([]float64, n*c.width), idx)
	return out
}

// appendRows appends deep row-major copies of the rows named by idx (all
// rows when idx is nil) to out. Their values are carved from *slab, which
// is replaced by a fresh slab of at least DefaultChunkRows rows when it
// runs out, so the copies share backing arrays.
func (c *Chunk) appendRows(out []Tuple, slab *[]float64, idx []int32) []Tuple {
	n := c.selected(idx)
	need := n * c.width
	if cap(*slab)-len(*slab) < need {
		*slab = make([]float64, 0, max(n, DefaultChunkRows)*c.width)
	}
	s := *slab
	*slab = s[:len(s)+need]
	out = slices.Grow(out, n)
	c.rowsInto(out[len(out):len(out)+n], s[len(s):len(s)+need], idx)
	return out[:len(out)+n]
}

// keepRows filters the rows from row from on down to the ones idx names,
// which must be ascending and at or after from; rows before from are
// untouched. The filter compacts each column in place.
func (c *Chunk) keepRows(from int, idx []int32) {
	for a := 0; a < c.width; a++ {
		col := c.vals[a*c.stride:]
		for j, r := range idx {
			col[from+j] = col[r]
		}
	}
	for j, r := range idx {
		c.class[from+j] = c.class[r]
	}
	c.n = from + len(idx)
}

// rowBatch is a reusable row-major view of chunk rows: the row form that
// ScanRows and the row iterators hand out, valid until the next fill.
type rowBatch struct {
	rows []Tuple
	vals []float64
}

// fill transposes the rows of c named by idx (all rows when idx is nil)
// into the batch and returns them.
func (b *rowBatch) fill(c *Chunk, idx []int32) []Tuple {
	n := c.selected(idx)
	if len(b.rows) < n || len(b.vals) < n*c.width {
		m := max(n, c.stride)
		b.rows = make([]Tuple, m)
		b.vals = make([]float64, m*c.width)
	}
	rows := b.rows[:n]
	c.rowsInto(rows, b.vals, idx)
	return rows
}

// HashRows computes Tuple.Hash64 for the rows named by idx (all rows when
// idx is nil), reusing dst's capacity. The hashes are bit-identical to
// hashing each row's materialized Tuple — same FNV-1a byte walk, same NaN
// and zero canonicalization — but evaluated column by column: the ~8
// dependent multiplies per value then belong to independent per-row chains
// that the pipeline overlaps, where the row-major walk serializes them.
// The batch removal paths of TupleBag lean on this for their bucket keys.
func (c *Chunk) HashRows(dst []uint64, idx []int32) []uint64 {
	const offset64 = 14695981039346656037
	n := c.selected(idx)
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for j := range dst {
		dst[j] = offset64
	}
	for a := 0; a < c.width; a++ {
		col := c.vals[a*c.stride:]
		if idx == nil {
			for r := 0; r < n; r++ {
				dst[r] = fnvMix(dst[r], hashBits(col[r]))
			}
		} else {
			for j, r := range idx {
				dst[j] = fnvMix(dst[j], hashBits(col[r]))
			}
		}
	}
	if idx == nil {
		for r := 0; r < n; r++ {
			dst[r] = fnvMix(dst[r], uint64(int(c.class[r])))
		}
	} else {
		for j, r := range idx {
			dst[j] = fnvMix(dst[j], uint64(int(c.class[r])))
		}
	}
	return dst
}

// fnvMix folds one 64-bit word into an FNV-1a state byte-wise, exactly as
// Tuple.Hash64 does (low byte first).
func fnvMix(h, b uint64) uint64 {
	const prime64 = 1099511628211
	h = (h ^ (b & 0xff)) * prime64
	h = (h ^ (b >> 8 & 0xff)) * prime64
	h = (h ^ (b >> 16 & 0xff)) * prime64
	h = (h ^ (b >> 24 & 0xff)) * prime64
	h = (h ^ (b >> 32 & 0xff)) * prime64
	h = (h ^ (b >> 40 & 0xff)) * prime64
	h = (h ^ (b >> 48 & 0xff)) * prime64
	h = (h ^ (b >> 56 & 0xff)) * prime64
	return h
}

// ChunkPool recycles chunks of one fixed geometry. It is safe for
// concurrent use: a producer (the scan pipeline, the predictor's dealer)
// gets chunks from the pool and consumers put them back when done.
type ChunkPool struct {
	width, rows int
	pool        sync.Pool
}

// NewChunkPool creates a pool of width×rows chunks.
func NewChunkPool(width, rows int) *ChunkPool {
	if rows < 1 {
		rows = DefaultChunkRows
	}
	return &ChunkPool{width: width, rows: rows}
}

// Rows returns the row capacity of the pool's chunks.
func (p *ChunkPool) Rows() int { return p.rows }

// Get returns an empty chunk (recycled if available).
func (p *ChunkPool) Get() *Chunk {
	if c, ok := p.pool.Get().(*Chunk); ok {
		c.Reset()
		return c
	}
	return NewChunk(p.width, p.rows)
}

// Put recycles a chunk obtained from Get.
func (p *ChunkPool) Put(c *Chunk) {
	if c != nil {
		p.pool.Put(c)
	}
}

// ---------------------------------------------------------------------------
// Chunked scanning

// ChunkScanner iterates a dataset sequentially in columnar chunks.
// NextChunk fills the caller-supplied (empty) chunk with up to Cap rows
// and returns io.EOF once the scan is exhausted; because the caller owns
// the chunk storage, chunked scans hand over batches without copying them
// a second time.
type ChunkScanner interface {
	// NextChunk appends up to dst.Cap()-dst.Len() rows into dst. It
	// returns io.EOF (with dst unchanged) once the source is exhausted;
	// a partial fill is not an error.
	NextChunk(dst *Chunk) error
	Close() error
}

// ForEachChunk scans src once in chunks of the given row capacity,
// invoking fn for every non-empty chunk. The chunk (and its columns) is
// only valid during the call; it is reused between invocations.
func ForEachChunk(src Source, rows int, fn func(*Chunk) error) error {
	sc, err := src.ScanChunks()
	if err != nil {
		return err
	}
	defer sc.Close()
	ch := NewChunk(len(src.Schema().Attributes), rows)
	for {
		ch.Reset()
		err := sc.NextChunk(ch)
		if err == io.EOF {
			return sc.Close()
		}
		if err != nil {
			sc.Close()
			return err
		}
		if ch.Len() == 0 {
			continue
		}
		if err := fn(ch); err != nil {
			sc.Close()
			return err
		}
	}
}
