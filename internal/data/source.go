package data

import (
	"errors"
	"io"
	"sync"
)

// Scanner iterates a dataset sequentially in row batches. The tuples
// returned by Next (including their Values slices) are only valid until
// the following Next call; callers that retain tuples must Clone them.
// Next returns (nil, io.EOF) once the scan is exhausted.
type Scanner interface {
	Next() ([]Tuple, error)
	Close() error
}

// Source is a scannable training database. A Source may be scanned any
// number of times; each scan starts a fresh sequential pass, modeling one
// scan over the training database D in the paper's cost accounting.
type Source interface {
	// Schema describes the tuples produced by this source.
	Schema() *Schema
	// ScanChunks begins a new sequential scan in columnar chunks: the
	// source's one native scan.
	ScanChunks() (ChunkScanner, error)
	// Scan begins a new sequential scan in row batches. Every built-in
	// source implements it as ScanRows over its chunked scan.
	Scan() (Scanner, error)
	// Count returns the number of tuples if known without scanning.
	Count() (n int64, known bool)
}

// ScanRows begins a row scan of src by adapting its chunked scan: each
// chunk is transposed into a reused batch of DefaultChunkRows rows, so
// the row form costs one copy and no per-batch allocation. A chunk
// delivered together with a terminal error is returned with that error.
func ScanRows(src Source) (Scanner, error) {
	cs, err := src.ScanChunks()
	if err != nil {
		return nil, err
	}
	return &rowScanner{cs: cs, ch: NewChunk(len(src.Schema().Attributes), DefaultChunkRows)}, nil
}

type rowScanner struct {
	cs    ChunkScanner
	ch    *Chunk
	batch rowBatch
}

func (s *rowScanner) Next() ([]Tuple, error) {
	for {
		s.ch.Reset()
		err := s.cs.NextChunk(s.ch)
		if s.ch.Len() > 0 {
			if err == io.EOF {
				err = nil
			}
			return s.batch.fill(s.ch, nil), err
		}
		if err != nil {
			return nil, err
		}
	}
}

func (s *rowScanner) Close() error { return s.cs.Close() }

// ---------------------------------------------------------------------------
// In-memory source

// MemSource is an in-memory Source backed by a tuple slice. The slice is
// not copied; callers must not mutate it (or the tuples it holds) after
// the first scan — scans serve from a columnar mirror built once.
type MemSource struct {
	schema *Schema
	tuples []Tuple

	mirrorOnce sync.Once
	mirror     *Chunk // columnar mirror of tuples, built on the first scan
}

// NewMemSource wraps tuples as a Source.
func NewMemSource(schema *Schema, tuples []Tuple) *MemSource {
	return &MemSource{schema: schema, tuples: tuples}
}

// Schema implements Source.
func (m *MemSource) Schema() *Schema { return m.schema }

// Count implements Source.
func (m *MemSource) Count() (int64, bool) { return int64(len(m.tuples)), true }

// Tuples exposes the backing slice (read-only by convention).
func (m *MemSource) Tuples() []Tuple { return m.tuples }

// Scan implements Source.
func (m *MemSource) Scan() (Scanner, error) { return ScanRows(m) }

// ScanChunks implements Source: chunks are served by column-wise
// copies from a columnar mirror of the tuple slice. The mirror is
// transposed once, on the first scan, and amortized across every
// later pass (a build scans the source at least twice: sampling and
// cleanup).
func (m *MemSource) ScanChunks() (ChunkScanner, error) {
	m.mirrorOnce.Do(func() {
		c := NewChunk(len(m.schema.Attributes), len(m.tuples))
		for _, t := range m.tuples {
			c.AppendTuple(t)
		}
		m.mirror = c
	})
	return &memChunkScanner{mirror: m.mirror}, nil
}

type memChunkScanner struct {
	mirror *Chunk
	pos    int
}

func (s *memChunkScanner) NextChunk(dst *Chunk) error {
	total := s.mirror.Len()
	if s.pos >= total {
		return io.EOF
	}
	n := dst.Cap() - dst.Len()
	if rest := total - s.pos; n > rest {
		n = rest
	}
	dst.AppendFrom(s.mirror, s.pos, n)
	s.pos += n
	return nil
}

func (s *memChunkScanner) Close() error { return nil }

// ---------------------------------------------------------------------------
// Generated sources

// GeneratedScan is the chunked scan of a source that generates its n rows
// one at a time: next writes the following row into t, whose Values has
// width entries, and the row is appended to the destination chunk.
func GeneratedScan(n int64, width int, next func(t *Tuple)) ChunkScanner {
	return &generatedScanner{remaining: n, row: Tuple{Values: make([]float64, width)}, next: next}
}

type generatedScanner struct {
	remaining int64
	row       Tuple
	next      func(*Tuple)
}

func (s *generatedScanner) NextChunk(dst *Chunk) error {
	if s.remaining == 0 {
		return io.EOF
	}
	n := min(int64(dst.Cap()-dst.Len()), s.remaining)
	for i := int64(0); i < n; i++ {
		s.next(&s.row)
		dst.AppendTuple(s.row)
	}
	s.remaining -= n
	return nil
}

func (s *generatedScanner) Close() error { return nil }

// ---------------------------------------------------------------------------
// Helpers

// ForEach scans src once, invoking fn for every tuple. The tuple passed to
// fn is only valid during the call.
func ForEach(src Source, fn func(Tuple) error) error {
	var rows rowBatch
	return ForEachChunk(src, DefaultChunkRows, func(ch *Chunk) error {
		for _, t := range rows.fill(ch, nil) {
			if err := fn(t); err != nil {
				return err
			}
		}
		return nil
	})
}

// ReadAll scans src once and returns deep copies of all tuples. The
// copies share backing arrays rather than paying one allocation per
// tuple: one array for the whole source when its count is known.
func ReadAll(src Source) ([]Tuple, error) {
	var out []Tuple
	var slab []float64
	if n, ok := src.Count(); ok {
		out = make([]Tuple, 0, n)
		slab = make([]float64, 0, int(n)*len(src.Schema().Attributes))
	}
	err := ForEachChunk(src, DefaultChunkRows, func(ch *Chunk) error {
		out = ch.appendRows(out, &slab, nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CountTuples returns the cardinality of src, scanning it only when the
// count is not known up front.
func CountTuples(src Source) (int64, error) {
	if n, ok := src.Count(); ok {
		return n, nil
	}
	var n int64
	err := ForEachChunk(src, DefaultChunkRows, func(ch *Chunk) error {
		n += int64(ch.Len())
		return nil
	})
	return n, err
}

// ErrSchemaMismatch is returned when a tuple stream does not match the
// expected schema.
var ErrSchemaMismatch = errors.New("data: schema mismatch")
