package data

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync/atomic"
)

// The columnar block file ("colfile") is the scan-optimized on-disk twin
// of the row format in file.go. Tuples are grouped into blocks of
// BlockRows rows; within a block each attribute is stored as one
// contiguous segment, delta-encoded against the block minimum at the
// narrowest fixed width that holds the block's value range (1/2/4-byte
// integers for the integer-valued synthetic workloads, raw float64
// otherwise). Every block carries a CRC32-C checksum, so readers detect
// corruption block-precisely. Each column header also records the
// column's min/max, NaN presence and categorical code bitmap (a "zone
// map"); the reader uses min as the delta base and skips the rest, which
// the writer keeps emitting so that its output stays byte-identical to
// every version-2 file already written. A fixed-size footer records the
// row and block counts; a missing or mangled footer is how a torn
// (partially written) file is detected at open.
//
// Layout (version 2):
//
//	"BOATCOLF" | version u8 | reserved u8 | blockRows u32 | schema
//	repeat per block:
//	  bodyLen u32 | body | crc32c(body) u32
//	  body = rowCount u32, per attribute column then the class column:
//	    enc u8 | flags u8 | min f64 | max f64 | codes u64 | segLen u32 | seg
//	index: per block the file-absolute offset of its bodyLen prefix, u64
//	  each | crc32c(index) u32
//	rowCount u64 | blockCount u64 | indexLen u64 | "BOATCEND"
//
// Every scan reads the whole block region sequentially, so the reader
// never reads the offset index; it only checks the index length against
// the footer. The writer still emits the index so that its output stays
// byte-identical to every version-2 file already written. Version-1
// files (no index, a 24-byte footer) fail to open.
//
// Decoding a block touches each column once sequentially — the shape the
// prefetch pipeline (pipeline.go) parallelizes across decode workers.

const (
	colMagic    = "BOATCOLF"
	colEndMagic = "BOATCEND"
	colVersion  = 2

	// DefaultBlockRows is the block row capacity used when the writer's
	// caller does not choose one. Large enough to amortize per-block
	// headers and CRC work, small enough that a decoded block (~9 columns
	// of float64) stays cache-friendly.
	DefaultBlockRows = 8192

	colFooterLen = 32

	// maxColBlockBody bounds a declared block body length; anything larger
	// is corruption, not data.
	maxColBlockBody = 1 << 30

	// maxColBlockValues bounds blockRows*(attrs+1) — the float64/int32
	// cells a decode chunk must allocate. A header may not demand an
	// absurd decode footprint (a const-encoded column stores no payload,
	// so body size alone cannot bound the decoded size).
	maxColBlockValues = 1 << 25
)

// Column segment encodings.
const (
	colEncConst byte = iota // every row equals min; empty segment
	colEncU8                // min + per-row unsigned 8-bit delta
	colEncU16               // min + per-row unsigned 16-bit LE delta
	colEncU32               // min + per-row unsigned 32-bit LE delta
	colEncRaw               // per-row IEEE-754 little-endian float64
)

// Column flag bits.
const (
	colFlagHasNaN     byte = 1 << iota // at least one value is NaN
	colFlagZoneValid                   // min/max bound every non-NaN value
	colFlagCodesValid                  // codes bitmap covers every value
)

var (
	// ErrColChecksum is wrapped by read errors on blocks whose stored
	// CRC32-C does not match their payload.
	ErrColChecksum = errors.New("data: columnar block checksum mismatch")
	// ErrColTruncated is wrapped by errors on torn columnar files: a
	// missing footer, a block cut short by the end of the file, or a
	// block region whose rows or bytes disagree with the footer.
	ErrColTruncated = errors.New("data: torn columnar file")
)

// BlockError locates a block-level read failure.
type BlockError struct {
	Path  string
	Block int64 // zero-based block index
	Err   error
}

func (e *BlockError) Error() string {
	return fmt.Sprintf("data: %s: block %d: %v", e.Path, e.Block, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *BlockError) Unwrap() error { return e.Err }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ---------------------------------------------------------------------------
// Block encoding

// appendColumn appends one encoded column segment (header + payload),
// computing the header's min/max, NaN flag and code bitmap along the way.
func appendColumn(buf []byte, col []float64) []byte {
	var (
		hasNaN   bool
		seen     bool
		min, max float64
		allInt   = true
		codes    uint64
		codesOK  = true
	)
	for _, v := range col {
		if v != v {
			hasNaN = true
			allInt, codesOK = false, false
			continue
		}
		if !seen {
			min, max, seen = v, v, true
		} else {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if allInt && (v != math.Trunc(v) || v < -(1<<52) || v > 1<<52) {
			allInt, codesOK = false, false
		}
		if codesOK {
			if v < 0 || v >= 64 {
				codesOK = false
			} else {
				codes |= 1 << uint(v)
			}
		}
	}
	var flags byte
	if hasNaN {
		flags |= colFlagHasNaN
	}
	if seen {
		flags |= colFlagZoneValid
	}
	if codesOK && len(col) > 0 {
		flags |= colFlagCodesValid
	} else {
		codes = 0
	}
	enc := colEncRaw
	switch {
	case seen && !hasNaN && min == max:
		enc = colEncConst
	case seen && !hasNaN && allInt:
		switch span := int64(max) - int64(min); {
		case span <= math.MaxUint8:
			enc = colEncU8
		case span <= math.MaxUint16:
			enc = colEncU16
		case span <= math.MaxUint32:
			enc = colEncU32
		}
	}
	buf = appendColHeader(buf, enc, flags, min, max, codes, segLen(enc, len(col)))
	base := int64(min)
	switch enc {
	case colEncConst:
	case colEncU8:
		for _, v := range col {
			buf = append(buf, byte(int64(v)-base))
		}
	case colEncU16:
		for _, v := range col {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(int64(v)-base))
		}
	case colEncU32:
		for _, v := range col {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(int64(v)-base))
		}
	default:
		for _, v := range col {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// appendClassColumn appends the class-label column, encoded with the same
// delta scheme (labels are small non-negative integers, so this is almost
// always one byte per row).
func appendClassColumn(buf []byte, cls []int32) []byte {
	var min, max int32
	if len(cls) > 0 {
		min, max = cls[0], cls[0]
		for _, c := range cls[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
	}
	enc := colEncU32
	switch span := int64(max) - int64(min); {
	case span == 0:
		enc = colEncConst
	case span <= math.MaxUint8:
		enc = colEncU8
	case span <= math.MaxUint16:
		enc = colEncU16
	}
	buf = appendColHeader(buf, enc, 0, float64(min), float64(max), 0, segLen(enc, len(cls)))
	switch enc {
	case colEncConst:
	case colEncU8:
		for _, c := range cls {
			buf = append(buf, byte(c-min))
		}
	case colEncU16:
		for _, c := range cls {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(c-min))
		}
	default:
		for _, c := range cls {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c-min))
		}
	}
	return buf
}

func appendColHeader(buf []byte, enc, flags byte, min, max float64, codes uint64, seg int) []byte {
	buf = append(buf, enc, flags)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(min))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(max))
	buf = binary.LittleEndian.AppendUint64(buf, codes)
	return binary.LittleEndian.AppendUint32(buf, uint32(seg))
}

// segLen returns the payload size of one column segment of n rows.
func segLen(enc byte, n int) int {
	switch enc {
	case colEncConst:
		return 0
	case colEncU8:
		return n
	case colEncU16:
		return 2 * n
	case colEncU32:
		return 4 * n
	default:
		return 8 * n
	}
}

const colHeaderLen = 2 + 8 + 8 + 8 + 4

// encodeBlock appends the body (rowCount + all column segments) of one
// block holding ch's rows to buf[:0].
func encodeBlock(buf []byte, ch *Chunk) []byte {
	buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(ch.Len()))
	for a := 0; a < ch.Width(); a++ {
		buf = appendColumn(buf, ch.Col(a))
	}
	return appendClassColumn(buf, ch.Classes())
}

// decodeColumn decodes one column segment of rows values from body[off:]
// into dst, returning the next offset.
func decodeColumn(body []byte, off, rows int, dst []float64) (int, error) {
	enc, _, min, _, _, seg, off, err := readColHeader(body, off, rows)
	if err != nil {
		return 0, err
	}
	p := body[off : off+seg]
	base := int64(min)
	switch enc {
	case colEncConst:
		for i := range dst {
			dst[i] = min
		}
	case colEncU8:
		for i := range dst {
			dst[i] = float64(base + int64(p[i]))
		}
	case colEncU16:
		for i := range dst {
			dst[i] = float64(base + int64(binary.LittleEndian.Uint16(p[2*i:])))
		}
	case colEncU32:
		for i := range dst {
			dst[i] = float64(base + int64(binary.LittleEndian.Uint32(p[4*i:])))
		}
	default:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
	}
	return off + seg, nil
}

// decodeClassColumn decodes the class segment from body[off:] into dst
// and validates every decoded label against the schema's class count:
// labels index class-count arrays all over the scan and update paths, so
// an out-of-range code in a checksum-valid (crafted or miswritten) block
// must fail the decode here, not corrupt memory later.
func decodeClassColumn(body []byte, off, rows int, dst []int32, classes int) (int, error) {
	enc, _, min, _, _, seg, off, err := readColHeader(body, off, rows)
	if err != nil {
		return 0, err
	}
	p := body[off : off+seg]
	base := int32(min)
	switch enc {
	case colEncConst:
		for i := range dst {
			dst[i] = base
		}
	case colEncU8:
		for i := range dst {
			dst[i] = base + int32(p[i])
		}
	case colEncU16:
		for i := range dst {
			dst[i] = base + int32(binary.LittleEndian.Uint16(p[2*i:]))
		}
	default:
		for i := range dst {
			dst[i] = base + int32(binary.LittleEndian.Uint32(p[4*i:]))
		}
	}
	for _, c := range dst {
		if c < 0 || int(c) >= classes {
			return 0, fmt.Errorf("data: class label %d outside schema range [0,%d)", c, classes)
		}
	}
	return off + seg, nil
}

// readColHeader parses the column header at body[off:] for a block of
// rows rows. Decoding needs only enc, min (the delta base) and seg; flags,
// max and codes are the header's zone-map fields, which no reader uses.
func readColHeader(body []byte, off, rows int) (enc, flags byte, min, max float64, codes uint64, seg, next int, err error) {
	if off+colHeaderLen > len(body) {
		return 0, 0, 0, 0, 0, 0, 0, fmt.Errorf("%w: column header past block end", ErrColTruncated)
	}
	enc, flags = body[off], body[off+1]
	if enc > colEncRaw {
		return 0, 0, 0, 0, 0, 0, 0, fmt.Errorf("data: unknown column encoding %d", enc)
	}
	min = math.Float64frombits(binary.LittleEndian.Uint64(body[off+2:]))
	max = math.Float64frombits(binary.LittleEndian.Uint64(body[off+10:]))
	codes = binary.LittleEndian.Uint64(body[off+18:])
	seg = int(binary.LittleEndian.Uint32(body[off+26:]))
	next = off + colHeaderLen
	if seg != segLen(enc, rows) || next+seg > len(body) {
		return 0, 0, 0, 0, 0, 0, 0, fmt.Errorf("%w: column segment length %d", ErrColTruncated, seg)
	}
	return enc, flags, min, max, codes, seg, next, nil
}

// decodeBlockInto decodes a verified block body into dst (which must be
// empty with capacity >= the block's rows), validating class labels
// against classes.
func decodeBlockInto(body []byte, maxRows int, dst *Chunk, classes int) error {
	if len(body) < 4 {
		return fmt.Errorf("%w: block body of %d bytes", ErrColTruncated, len(body))
	}
	rows := int(binary.LittleEndian.Uint32(body))
	if rows <= 0 || rows > maxRows || rows > dst.Cap() {
		return fmt.Errorf("data: implausible block row count %d", rows)
	}
	off := 4
	var err error
	for a := 0; a < dst.width; a++ {
		off, err = decodeColumn(body, off, rows, dst.vals[a*dst.stride:a*dst.stride+rows])
		if err != nil {
			return err
		}
	}
	if off, err = decodeClassColumn(body, off, rows, dst.class[:rows], classes); err != nil {
		return err
	}
	if off != len(body) {
		return fmt.Errorf("data: %d trailing bytes after block columns", len(body)-off)
	}
	dst.n = rows
	return nil
}

// ---------------------------------------------------------------------------
// Writer

// ColFileWriter streams tuples into a columnar block file.
type ColFileWriter struct {
	f         *os.File
	w         *bufio.Writer
	schema    *Schema
	blockRows int
	stage     *Chunk
	body      []byte
	rows      int64
	blocks    int64
	off       int64   // file offset of the next block's length prefix
	offsets   []int64 // per-block offset of the length prefix (the index)
	closed    bool
}

// CreateColFile creates (truncating) a columnar dataset file at path.
// blockRows <= 0 selects DefaultBlockRows.
func CreateColFile(path string, schema *Schema, blockRows int) (*ColFileWriter, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<18)
	hdr := append([]byte(colMagic), colVersion, 0)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(blockRows))
	hdr = appendSchema(hdr, schema)
	if _, err := w.Write(hdr); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &ColFileWriter{
		f:         f,
		w:         w,
		schema:    schema,
		blockRows: blockRows,
		stage:     NewChunk(len(schema.Attributes), blockRows),
		off:       int64(len(hdr)),
	}, nil
}

// Append stages one tuple, flushing a block when the stage fills.
func (cw *ColFileWriter) Append(t Tuple) error {
	if cw.closed {
		return errors.New("data: append to closed writer")
	}
	if len(t.Values) != len(cw.schema.Attributes) {
		return ErrSchemaMismatch
	}
	cw.stage.AppendTuple(t)
	if cw.stage.Full() {
		return cw.flushBlock()
	}
	return nil
}

// AppendChunk stages a whole columnar batch (same width required).
func (cw *ColFileWriter) AppendChunk(ch *Chunk) error {
	if cw.closed {
		return errors.New("data: append to closed writer")
	}
	if ch.Width() != len(cw.schema.Attributes) {
		return ErrSchemaMismatch
	}
	for pos := 0; pos < ch.Len(); {
		n := cw.stage.Cap() - cw.stage.Len()
		if rem := ch.Len() - pos; n > rem {
			n = rem
		}
		cw.stage.AppendFrom(ch, pos, n)
		pos += n
		if cw.stage.Full() {
			if err := cw.flushBlock(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (cw *ColFileWriter) flushBlock() error {
	if cw.stage.Len() == 0 {
		return nil
	}
	cw.body = encodeBlock(cw.body, cw.stage)
	var pre [4]byte
	binary.LittleEndian.PutUint32(pre[:], uint32(len(cw.body)))
	if _, err := cw.w.Write(pre[:]); err != nil {
		return err
	}
	if _, err := cw.w.Write(cw.body); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(pre[:], crc32.Checksum(cw.body, castagnoli))
	if _, err := cw.w.Write(pre[:]); err != nil {
		return err
	}
	cw.offsets = append(cw.offsets, cw.off)
	cw.off += int64(4 + len(cw.body) + 4)
	cw.rows += int64(cw.stage.Len())
	cw.blocks++
	cw.stage.Reset()
	return nil
}

// Count returns the number of tuples appended so far.
func (cw *ColFileWriter) Count() int64 { return cw.rows + int64(cw.stage.Len()) }

// Close flushes the final (possibly short) block, writes the offset
// index and the footer, and closes the file.
func (cw *ColFileWriter) Close() error {
	if cw.closed {
		return nil
	}
	cw.closed = true
	if err := cw.flushBlock(); err != nil {
		cw.f.Close()
		return err
	}
	idx := make([]byte, 0, 8*len(cw.offsets)+4)
	for _, off := range cw.offsets {
		idx = binary.LittleEndian.AppendUint64(idx, uint64(off))
	}
	idx = binary.LittleEndian.AppendUint32(idx, crc32.Checksum(idx, castagnoli))
	var foot [colFooterLen]byte
	binary.LittleEndian.PutUint64(foot[0:], uint64(cw.rows))
	binary.LittleEndian.PutUint64(foot[8:], uint64(cw.blocks))
	binary.LittleEndian.PutUint64(foot[16:], uint64(len(idx)))
	copy(foot[24:], colEndMagic)
	if _, err := cw.w.Write(append(idx, foot[:]...)); err != nil {
		cw.f.Close()
		return err
	}
	if err := cw.w.Flush(); err != nil {
		cw.f.Close()
		return err
	}
	return cw.f.Close()
}

// WriteColFile materializes all tuples of src into a columnar block file
// at path. blockRows <= 0 selects DefaultBlockRows. This is the
// conversion path from any Source — including a row-format FileSource.
func WriteColFile(path string, src Source, blockRows int) (int64, error) {
	cw, err := CreateColFile(path, src.Schema(), blockRows)
	if err != nil {
		return 0, err
	}
	if err := ForEachChunk(src, cw.blockRows, cw.AppendChunk); err != nil {
		cw.Close()
		os.Remove(path)
		return 0, err
	}
	n := cw.Count()
	if err := cw.Close(); err != nil {
		os.Remove(path)
		return 0, err
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// ColSource

// ColOptions configures how a ColSource reads its file.
type ColOptions struct {
	// FS, when non-nil, replaces the real filesystem for every scan pass
	// (fault-injection tests route reads through internal/faultfs here).
	// File metadata — header and footer — is always read directly.
	FS FS
	// Retry bounds the retry-with-backoff applied to transient open and
	// read faults during scans. The zero value selects the defaults.
	Retry RetryPolicy
	// Recorder, when non-nil, receives retry accounting.
	Recorder FaultRecorder
}

// ColSource is a Source backed by a columnar block file created by
// ColFileWriter. Every scan opens a fresh sequential pass over the whole
// file behind the prefetch/decode pipeline.
type ColSource struct {
	path      string
	schema    *Schema
	blockRows int
	headerLen int64
	dataLen   int64 // bytes of the block region (between header and index)
	count     int64
	blocks    int64

	fsys  FS
	retry RetryPolicy
	rec   FaultRecorder
}

// OpenColFile opens a columnar dataset file, validating its header and
// footer. A missing or mangled footer — the signature of a torn write —
// surfaces as an error wrapping ErrColTruncated.
func OpenColFile(path string, opts ...ColOptions) (*ColSource, error) {
	var o ColOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	magic := make([]byte, len(colMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("data: %s: reading magic: %w", path, err)
	}
	if string(magic) != colMagic {
		return nil, fmt.Errorf("data: %s: not a BOAT columnar file (bad magic)", path)
	}
	var fixed [6]byte
	if _, err := io.ReadFull(br, fixed[:]); err != nil {
		return nil, fmt.Errorf("data: %s: reading header: %w", path, err)
	}
	if version := fixed[0]; version != colVersion {
		return nil, fmt.Errorf("data: %s: unsupported columnar version %d", path, version)
	}
	blockRows := int(binary.LittleEndian.Uint32(fixed[2:]))
	if blockRows <= 0 || blockRows > 1<<24 {
		return nil, fmt.Errorf("data: %s: implausible block rows %d", path, blockRows)
	}
	schema, err := readSchema(br)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if int64(blockRows)*int64(len(schema.Attributes)+1) > maxColBlockValues {
		return nil, fmt.Errorf("data: %s: implausible block geometry (%d rows x %d columns)",
			path, blockRows, len(schema.Attributes)+1)
	}
	pos, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, err
	}
	headerLen := pos - int64(br.Buffered())
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < headerLen+colFooterLen {
		return nil, fmt.Errorf("%w: %s: no footer", ErrColTruncated, path)
	}
	var foot [colFooterLen]byte
	if _, err := f.ReadAt(foot[:], st.Size()-colFooterLen); err != nil {
		return nil, fmt.Errorf("data: %s: reading footer: %w", path, err)
	}
	if string(foot[colFooterLen-8:]) != colEndMagic {
		return nil, fmt.Errorf("%w: %s: footer magic missing (partial write?)", ErrColTruncated, path)
	}
	count := int64(binary.LittleEndian.Uint64(foot[0:]))
	blocks := int64(binary.LittleEndian.Uint64(foot[8:]))
	indexLen := int64(binary.LittleEndian.Uint64(foot[16:]))
	if indexLen != 8*blocks+4 || st.Size() < headerLen+indexLen+colFooterLen {
		return nil, fmt.Errorf("%w: %s: offset index inconsistent with footer", ErrColTruncated, path)
	}
	dataLen := st.Size() - headerLen - indexLen - colFooterLen
	if count < 0 || blocks < 0 || (blocks == 0) != (dataLen == 0) ||
		(blocks > 0 && count > blocks*int64(blockRows)) {
		return nil, fmt.Errorf("%w: %s: footer inconsistent with file size", ErrColTruncated, path)
	}
	return &ColSource{
		path:      path,
		schema:    schema,
		blockRows: blockRows,
		headerLen: headerLen,
		dataLen:   dataLen,
		count:     count,
		blocks:    blocks,
		fsys:      fsOrDefault(o.FS),
		retry:     o.Retry,
		rec:       o.Recorder,
	}, nil
}

// Path returns the backing file path.
func (s *ColSource) Path() string { return s.path }

// BlockRows returns the file's block row capacity.
func (s *ColSource) BlockRows() int { return s.blockRows }

// Blocks returns the number of blocks in the file.
func (s *ColSource) Blocks() int64 { return s.blocks }

// SizeBytes returns the encoded size of the block region (physical
// payload bytes, excluding header, index and footer).
func (s *ColSource) SizeBytes() int64 { return s.dataLen }

// Schema implements Source.
func (s *ColSource) Schema() *Schema { return s.schema }

// Count implements Source.
func (s *ColSource) Count() (int64, bool) { return s.count, true }

// Scan implements Source.
func (s *ColSource) Scan() (Scanner, error) { return ScanRows(s) }

// ScanChunks implements Source: a whole-file scan behind the
// prefetch/decode pipeline.
func (s *ColSource) ScanChunks() (ChunkScanner, error) {
	return s.ScanChunksPipeline(nil)
}

// ScanChunksPipeline implements PipelinedChunkSource: ScanChunks with obs
// (nil ok) receiving the pipeline's live readings.
func (s *ColSource) ScanChunksPipeline(obs PipelineObserver) (ChunkScanner, error) {
	return s.scanPipeline(pipelineDepth, decodeWorkers(), obs)
}

// scanPipeline is ScanChunksPipeline at an explicit depth and decode
// worker count, which tests sweep; the tuple stream is the same at every
// setting.
func (s *ColSource) scanPipeline(depth, workers int, obs PipelineObserver) (ChunkScanner, error) {
	br, err := s.openBlockReader()
	if err != nil {
		return nil, err
	}
	return newColPipeline(s, br, depth, workers, obs), nil
}

// openBlockReader opens a fresh pass positioned at the first block,
// retrying transient open faults. It seeks past the header when the
// filesystem supports seeking and reads and discards it otherwise
// (injected test filesystems are plain readers).
func (s *ColSource) openBlockReader() (*blockReader, error) {
	var rc io.ReadCloser
	err := s.retry.Do(s.rec, func() error {
		var err error
		rc, err = s.fsys.Open(s.path)
		return err
	})
	if err != nil {
		return nil, err
	}
	br := &blockReader{
		rc:        rc,
		path:      s.path,
		retry:     s.retry.withDefaults(),
		rec:       s.rec,
		remBlocks: s.blocks,
		remBytes:  s.dataLen,
		r:         bufio.NewReaderSize(rc, 1<<20),
	}
	if sk, ok := rc.(io.Seeker); ok {
		_, err = sk.Seek(s.headerLen, io.SeekStart)
	} else {
		err = br.discard(s.headerLen)
	}
	if err != nil {
		br.Close()
		return nil, err
	}
	return br, nil
}

// decodeBlock verifies raw's checksum and decodes it into dst.
func (s *ColSource) decodeBlock(raw []byte, block int64, dst *Chunk) error {
	if len(raw) < 8 {
		return &BlockError{Path: s.path, Block: block, Err: ErrColTruncated}
	}
	body := raw[:len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(body, castagnoli) != want {
		return &BlockError{Path: s.path, Block: block, Err: ErrColChecksum}
	}
	if err := decodeBlockInto(body, s.blockRows, dst, s.schema.ClassCount); err != nil {
		return &BlockError{Path: s.path, Block: block, Err: err}
	}
	return nil
}

// blockReader reads raw length-prefixed blocks sequentially, retrying
// transient read faults under the source's RetryPolicy. phys counts every
// byte that crossed the filesystem boundary (it is read concurrently by
// iostats while the pipeline's reader goroutine advances it).
type blockReader struct {
	rc        io.ReadCloser
	r         *bufio.Reader
	path      string
	retry     RetryPolicy
	rec       FaultRecorder
	remBlocks int64
	remBytes  int64
	block     int64
	phys      atomic.Int64
}

// readFull fills p, retrying transient faults with backoff.
func (b *blockReader) readFull(p []byte) error {
	backoff := b.retry.Backoff
	tries := 1
	filled := 0
	for filled < len(p) {
		n, err := b.r.Read(p[filled:])
		filled += n
		switch {
		case err == nil:
		case err == io.EOF:
			return fmt.Errorf("%w: unexpected EOF mid-block", ErrColTruncated)
		case IsTransient(err) && tries < b.retry.Attempts:
			tries++
			if b.rec != nil {
				b.rec.RecordSpillRetry()
			}
			b.retry.Sleep(backoff)
			backoff *= 2
		default:
			return err
		}
	}
	b.phys.Add(int64(filled))
	return nil
}

// discard consumes n bytes (the header) from the stream.
func (b *blockReader) discard(n int64) error {
	var scratch [256]byte
	for n > 0 {
		take := int64(len(scratch))
		if take > n {
			take = n
		}
		if err := b.readFull(scratch[:take]); err != nil {
			return err
		}
		n -= take
	}
	return nil
}

// readRawBlock reads the next block's body+CRC into buf (grown as
// needed), returning io.EOF after the footer's last block — or, when the
// blocks do not fill the block region exactly, a *BlockError wrapping
// ErrColTruncated.
func (b *blockReader) readRawBlock(buf []byte) ([]byte, error) {
	if b.remBlocks <= 0 {
		if b.remBytes != 0 {
			return nil, &BlockError{Path: b.path, Block: b.block,
				Err: fmt.Errorf("%w: %d bytes after the footer's last block", ErrColTruncated, b.remBytes)}
		}
		return nil, io.EOF
	}
	var pre [4]byte
	if err := b.readFull(pre[:]); err != nil {
		return nil, &BlockError{Path: b.path, Block: b.block, Err: err}
	}
	bodyLen := binary.LittleEndian.Uint32(pre[:])
	if bodyLen == 0 || bodyLen > maxColBlockBody || int64(bodyLen)+8 > b.remBytes {
		return nil, &BlockError{Path: b.path, Block: b.block,
			Err: fmt.Errorf("%w: implausible block length %d", ErrColTruncated, bodyLen)}
	}
	need := int(bodyLen) + 4
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	if err := b.readFull(buf); err != nil {
		return nil, &BlockError{Path: b.path, Block: b.block, Err: err}
	}
	b.remBytes -= int64(need) + 4
	b.remBlocks--
	b.block++
	return buf, nil
}

// PhysicalBytesRead returns the bytes read from the filesystem so far.
func (b *blockReader) PhysicalBytesRead() int64 { return b.phys.Load() }

func (b *blockReader) Close() error {
	if b.rc == nil {
		return nil
	}
	err := b.rc.Close()
	b.rc = nil
	return err
}

// ---------------------------------------------------------------------------
// Format sniffing

// Open opens a dataset file of either on-disk format, sniffing the magic:
// row-major files (FileSource) and columnar block files (ColSource).
// Columnar options apply only to columnar files.
func Open(path string, opts ...ColOptions) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	magic := make([]byte, 8)
	_, err = io.ReadFull(f, magic)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("data: %s: reading magic: %w", path, err)
	}
	switch string(magic) {
	case fileMagic:
		return OpenFile(path)
	case colMagic:
		return OpenColFile(path, opts...)
	default:
		return nil, fmt.Errorf("data: %s: not a BOAT dataset file (bad magic)", path)
	}
}
