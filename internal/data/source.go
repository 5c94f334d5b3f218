package data

import (
	"errors"
	"io"
	"sync"
)

// Scanner iterates a dataset sequentially in batches. The tuples returned
// by Next (including their Values slices) are only valid until the
// following Next call; callers that retain tuples must Clone them.
// Next returns (nil, io.EOF) once the scan is exhausted.
type Scanner interface {
	Next() ([]Tuple, error)
	Close() error
}

// Source is a scannable training database. A Source may be scanned any
// number of times; each Scan starts a fresh sequential pass, modeling one
// scan over the training database D in the paper's cost accounting.
type Source interface {
	// Schema describes the tuples produced by this source.
	Schema() *Schema
	// Scan begins a new sequential scan.
	Scan() (Scanner, error)
	// Count returns the number of tuples if known without scanning.
	Count() (n int64, known bool)
}

// DefaultBatchSize is the number of tuples per Scanner batch used by the
// built-in sources.
const DefaultBatchSize = 1024

// ---------------------------------------------------------------------------
// In-memory source

// MemSource is an in-memory Source backed by a tuple slice. The slice is
// not copied; callers must not mutate it (or the tuples it holds) after
// the first scan — chunked scans serve from a columnar mirror built once.
type MemSource struct {
	schema *Schema
	tuples []Tuple

	mirrorOnce sync.Once
	mirror     *Chunk // columnar mirror of tuples, built on first ScanChunks
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
func (m *MemSource) Scan() (Scanner, error) {
	return &memScanner{tuples: m.tuples}, nil
}

// ScanChunks implements ChunkedSource: chunks are served by column-wise
// copies from a columnar mirror of the tuple slice. The mirror is
// transposed once, on the first chunked scan, and amortized across every
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

type memScanner struct {
	tuples []Tuple
	pos    int
}

func (s *memScanner) Next() ([]Tuple, error) {
	if s.pos >= len(s.tuples) {
		return nil, io.EOF
	}
	end := s.pos + DefaultBatchSize
	if end > len(s.tuples) {
		end = len(s.tuples)
	}
	batch := s.tuples[s.pos:end]
	s.pos = end
	return batch, nil
}

func (s *memScanner) Close() error { return nil }

// ---------------------------------------------------------------------------
// Helpers

// ForEach scans src once, invoking fn for every tuple. The tuple passed to
// fn is only valid during the call.
func ForEach(src Source, fn func(Tuple) error) error {
	sc, err := src.Scan()
	if err != nil {
		return err
	}
	defer sc.Close()
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			return sc.Close()
		}
		if err != nil {
			sc.Close()
			return err
		}
		for _, t := range batch {
			if err := fn(t); err != nil {
				sc.Close()
				return err
			}
		}
	}
}

// ReadAll scans src once and returns deep copies of all tuples. The
// copies share one backing array per batch of rows rather than paying one
// allocation per tuple.
func ReadAll(src Source) ([]Tuple, error) {
	var out []Tuple
	width := len(src.Schema().Attributes)
	var backing []float64
	if n, ok := src.Count(); ok {
		out = make([]Tuple, 0, n)
		backing = make([]float64, 0, int(n)*width)
	}
	err := ForEach(src, func(t Tuple) error {
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

// CountTuples scans src if necessary to determine its cardinality.
func CountTuples(src Source) (int64, error) {
	if n, ok := src.Count(); ok {
		return n, nil
	}
	var n int64
	err := ForEach(src, func(Tuple) error { n++; return nil })
	return n, err
}

// ErrSchemaMismatch is returned when a tuple stream does not match the
// expected schema.
var ErrSchemaMismatch = errors.New("data: schema mismatch")
