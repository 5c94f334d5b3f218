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
	"sync"
	"sync/atomic"
)

// The columnar block file ("colfile") is the scan-optimized on-disk twin
// of the row format in file.go. Tuples are grouped into blocks of
// BlockRows rows; within a block each attribute is stored as one
// contiguous segment, delta-encoded against the block minimum at the
// narrowest fixed width that holds the block's value range (1/2/4-byte
// integers for the integer-valued synthetic workloads, raw float64
// otherwise). Every block carries a CRC32-C checksum and a per-column
// ColZone (min/max, NaN presence, categorical code bitmap), so readers
// detect corruption block-precisely and the routing scans can skip the
// per-row partition kernel when a zone decides a whole block (scan.go,
// update.go). A fixed-size footer records the row and block counts; a
// missing or mangled footer is how a torn (partially written) file is
// detected at open.
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
// The index is what makes a single file byte-range splittable: a range
// view (OpenColRange, ColSource.Range) seeks straight to offsets[lo] and
// reads blocks [lo, hi) with a private reader, no shared state with other
// views. Version 1 files (no index, 24-byte footer without indexLen)
// remain readable; their offsets are derived on demand by a one-pass
// walk of the block length prefixes (see BlockOffsets).
//
// Decoding a block touches each column once sequentially — the shape the
// prefetch pipeline (pipeline.go) parallelizes across decode workers.

const (
	colMagic    = "BOATCOLF"
	colEndMagic = "BOATCEND"
	colVersion  = 2
	colVersion1 = 1

	// DefaultBlockRows is the block row capacity used when the writer's
	// caller does not choose one. Large enough to amortize per-block
	// headers and CRC work, small enough that a decoded block (~9 columns
	// of float64) stays cache-friendly.
	DefaultBlockRows = 8192

	colFooterV1Len = 24
	colFooterLen   = 32

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
	// missing footer, or a block cut short by the end of the file.
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

// appendColumn appends one encoded column segment (header + payload) and
// computes its zone along the way.
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
// into dst, returning the next offset and the column's zone.
func decodeColumn(body []byte, off, rows int, dst []float64) (int, ColZone, error) {
	enc, flags, min, max, codes, seg, off, err := readColHeader(body, off, rows)
	if err != nil {
		return 0, ColZone{}, err
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
	z := ColZone{
		Min:        min,
		Max:        max,
		Codes:      codes,
		HasNaN:     flags&colFlagHasNaN != 0,
		Valid:      flags&colFlagZoneValid != 0,
		CodesValid: flags&colFlagCodesValid != 0,
	}
	return off + seg, z, nil
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
// empty with capacity >= the block's rows), filling zones (len >= width)
// and validating class labels against classes.
func decodeBlockInto(body []byte, maxRows int, dst *Chunk, zones []ColZone, classes int) error {
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
		off, zones[a], err = decodeColumn(body, off, rows, dst.vals[a*dst.stride:a*dst.stride+rows])
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
	dst.AbsorbZones(zones, 0)
	return nil
}

// ---------------------------------------------------------------------------
// Writer

// ColFileWriter streams tuples into a columnar block file.
type ColFileWriter struct {
	f         *os.File
	w         *bufio.Writer
	schema    *Schema
	version   byte
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
	return createColFile(path, schema, blockRows, colVersion)
}

// createColFile is CreateColFile with an explicit format version; tests
// use it to materialize version-1 files (no offset index) and exercise
// the backward-compatible header walk.
func createColFile(path string, schema *Schema, blockRows int, version byte) (*ColFileWriter, error) {
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
	hdr := append([]byte(colMagic), version, 0)
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
		version:   version,
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
	if cw.version == colVersion1 {
		var foot [colFooterV1Len]byte
		binary.LittleEndian.PutUint64(foot[0:], uint64(cw.rows))
		binary.LittleEndian.PutUint64(foot[8:], uint64(cw.blocks))
		copy(foot[16:], colEndMagic)
		if _, err := cw.w.Write(foot[:]); err != nil {
			cw.f.Close()
			return err
		}
	} else {
		idx := make([]byte, 0, 8*len(cw.offsets)+4)
		for _, off := range cw.offsets {
			idx = binary.LittleEndian.AppendUint64(idx, uint64(off))
		}
		idx = binary.LittleEndian.AppendUint32(idx, crc32.Checksum(idx, castagnoli))
		if _, err := cw.w.Write(idx); err != nil {
			cw.f.Close()
			return err
		}
		var foot [colFooterLen]byte
		binary.LittleEndian.PutUint64(foot[0:], uint64(cw.rows))
		binary.LittleEndian.PutUint64(foot[8:], uint64(cw.blocks))
		binary.LittleEndian.PutUint64(foot[16:], uint64(len(idx)))
		copy(foot[24:], colEndMagic)
		if _, err := cw.w.Write(foot[:]); err != nil {
			cw.f.Close()
			return err
		}
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
	// Pipeline configures the asynchronous prefetch/decode pipeline used
	// by ScanChunks. The zero value selects the defaults (see
	// PipelineConfig); Depth < 0 decodes synchronously in the caller.
	Pipeline PipelineConfig
}

// colIndex lazily holds the per-block offset table of one file, shared
// by the full-file source and every Range view derived from it so the
// load (footer-region read for version 2, header walk for version 1)
// happens at most once per OpenColFile.
type colIndex struct {
	once    sync.Once
	offsets []int64 // len blocks+1; [i] = offset of block i's length prefix, [blocks] = end of block region
	err     error
}

// ColSource is a Source backed by a columnar block file created by
// ColFileWriter. Every scan opens a fresh sequential pass over the file
// — or, for a Range view, over its contiguous run of blocks.
type ColSource struct {
	path      string
	schema    *Schema
	version   byte
	blockRows int
	headerLen int64
	dataLen   int64 // bytes of the block region (between header and index/footer)
	indexLen  int64 // bytes of the offset index (0 for version-1 files)
	count     int64 // rows in [lo, hi)
	blocks    int64 // blocks in the whole file
	lo, hi    int64 // the view's block range (full file: [0, blocks))
	idx       *colIndex

	fsys  FS
	retry RetryPolicy
	rec   FaultRecorder
	pipe  PipelineConfig
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
	version := fixed[0]
	if version != colVersion && version != colVersion1 {
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
	footerLen := int64(colFooterLen)
	if version == colVersion1 {
		footerLen = colFooterV1Len
	}
	if st.Size() < headerLen+footerLen {
		return nil, fmt.Errorf("%w: %s: no footer", ErrColTruncated, path)
	}
	foot := make([]byte, footerLen)
	if _, err := f.ReadAt(foot, st.Size()-footerLen); err != nil {
		return nil, fmt.Errorf("data: %s: reading footer: %w", path, err)
	}
	if string(foot[footerLen-8:]) != colEndMagic {
		return nil, fmt.Errorf("%w: %s: footer magic missing (partial write?)", ErrColTruncated, path)
	}
	count := int64(binary.LittleEndian.Uint64(foot[0:]))
	blocks := int64(binary.LittleEndian.Uint64(foot[8:]))
	var indexLen int64
	if version != colVersion1 {
		indexLen = int64(binary.LittleEndian.Uint64(foot[16:]))
		if indexLen != 8*blocks+4 || st.Size() < headerLen+indexLen+footerLen {
			return nil, fmt.Errorf("%w: %s: offset index inconsistent with footer", ErrColTruncated, path)
		}
	}
	dataLen := st.Size() - headerLen - indexLen - footerLen
	if count < 0 || blocks < 0 || (blocks == 0) != (dataLen == 0) ||
		(blocks > 0 && count > blocks*int64(blockRows)) {
		return nil, fmt.Errorf("%w: %s: footer inconsistent with file size", ErrColTruncated, path)
	}
	return &ColSource{
		path:      path,
		schema:    schema,
		version:   version,
		blockRows: blockRows,
		headerLen: headerLen,
		dataLen:   dataLen,
		indexLen:  indexLen,
		count:     count,
		blocks:    blocks,
		lo:        0,
		hi:        blocks,
		idx:       &colIndex{},
		fsys:      fsOrDefault(o.FS),
		retry:     o.Retry,
		rec:       o.Recorder,
		pipe:      o.Pipeline,
	}, nil
}

// OpenColRange opens a columnar dataset file restricted to the blocks
// [blockLo, blockHi) — a contiguous slice of the file. The view
// scans only its byte range of the file and reports the exact row count
// of its blocks.
func OpenColRange(path string, blockLo, blockHi int64, opts ...ColOptions) (*ColSource, error) {
	s, err := OpenColFile(path, opts...)
	if err != nil {
		return nil, err
	}
	return s.Range(blockLo, blockHi)
}

// Range returns a view of the source restricted to blocks [lo, hi) of
// the file (absolute block indexes). Views share the parent's lazily
// loaded offset index; deriving a range of a range is not supported.
func (s *ColSource) Range(lo, hi int64) (*ColSource, error) {
	if s.lo != 0 || s.hi != s.blocks {
		return nil, fmt.Errorf("data: %s: range of a range view", s.path)
	}
	if lo < 0 || hi > s.blocks || lo > hi {
		return nil, fmt.Errorf("data: %s: block range [%d,%d) outside [0,%d)", s.path, lo, hi, s.blocks)
	}
	r := *s
	r.lo, r.hi = lo, hi
	r.count = s.rowsInBlocks(lo, hi)
	return &r, nil
}

// rowsInBlocks computes the exact row count of blocks [lo, hi): the
// writer only flushes full blocks mid-stream, so every block except the
// file's last holds exactly blockRows rows.
func (s *ColSource) rowsInBlocks(lo, hi int64) int64 {
	if lo >= hi {
		return 0
	}
	n := (hi - lo) * int64(s.blockRows)
	if hi == s.blocks {
		n += s.count - s.blocks*int64(s.blockRows) // last block's shortfall (<= 0)
	}
	if n < 0 {
		n = 0
	}
	return n
}

// BlockOffsets returns the file-absolute offset of every block's length
// prefix plus a final sentinel (the end of the block region) — blocks+1
// entries. Version-2 files read the footer-region index (CRC-checked);
// version-1 files derive it by a one-pass walk of the block length
// prefixes. The result is computed once and shared with every Range
// view. Like the header and footer, the index is metadata and is read
// directly, not through the injected FS.
func (s *ColSource) BlockOffsets() ([]int64, error) {
	s.idx.once.Do(func() {
		s.idx.offsets, s.idx.err = s.loadBlockOffsets()
	})
	return s.idx.offsets, s.idx.err
}

func (s *ColSource) loadBlockOffsets() ([]int64, error) {
	end := s.headerLen + s.dataLen
	offsets := make([]int64, 0, s.blocks+1)
	if s.version != colVersion1 {
		f, err := os.Open(s.path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		idx := make([]byte, s.indexLen)
		if _, err := f.ReadAt(idx, end); err != nil {
			return nil, fmt.Errorf("%w: %s: reading offset index: %v", ErrColTruncated, s.path, err)
		}
		body, tail := idx[:len(idx)-4], idx[len(idx)-4:]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
			return nil, fmt.Errorf("%w: %s: offset index", ErrColChecksum, s.path)
		}
		prev := int64(0)
		for i := int64(0); i < s.blocks; i++ {
			off := int64(binary.LittleEndian.Uint64(body[8*i:]))
			if off < s.headerLen || off <= prev && i > 0 || off+8 > end {
				return nil, fmt.Errorf("%w: %s: offset index entry %d out of order", ErrColTruncated, s.path, i)
			}
			if i == 0 && off != s.headerLen {
				return nil, fmt.Errorf("%w: %s: offset index does not start at the first block", ErrColTruncated, s.path)
			}
			offsets = append(offsets, off)
			prev = off
		}
		return append(offsets, end), nil
	}
	// Version 1: walk the length prefixes. 4 bytes per block via ReadAt —
	// a metadata pass, not a data scan.
	f, err := os.Open(s.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pre [4]byte
	off := s.headerLen
	for i := int64(0); i < s.blocks; i++ {
		if off+8 > end {
			return nil, fmt.Errorf("%w: %s: block %d past end of block region", ErrColTruncated, s.path, i)
		}
		if _, err := f.ReadAt(pre[:], off); err != nil {
			return nil, fmt.Errorf("%w: %s: walking block %d: %v", ErrColTruncated, s.path, i, err)
		}
		bodyLen := int64(binary.LittleEndian.Uint32(pre[:]))
		if bodyLen == 0 || bodyLen > maxColBlockBody || off+4+bodyLen+4 > end {
			return nil, fmt.Errorf("%w: %s: walking block %d: implausible length %d", ErrColTruncated, s.path, i, bodyLen)
		}
		offsets = append(offsets, off)
		off += 4 + bodyLen + 4
	}
	if off != end {
		return nil, fmt.Errorf("%w: %s: %d bytes of slack after the last block", ErrColTruncated, s.path, end-off)
	}
	return append(offsets, end), nil
}

// Path returns the backing file path.
func (s *ColSource) Path() string { return s.path }

// BlockRows returns the file's block row capacity.
func (s *ColSource) BlockRows() int { return s.blockRows }

// Blocks returns the number of blocks the view scans (the whole file
// for a source returned by OpenColFile, the range for a Range view).
func (s *ColSource) Blocks() int64 { return s.hi - s.lo }

// BlockRange returns the view's block range [lo, hi) in absolute file
// block indexes.
func (s *ColSource) BlockRange() (lo, hi int64) { return s.lo, s.hi }

// SizeBytes returns the encoded size of the block region (physical
// payload bytes, excluding header and footer).
func (s *ColSource) SizeBytes() int64 { return s.dataLen }

// Schema implements Source.
func (s *ColSource) Schema() *Schema { return s.schema }

// Count implements Source.
func (s *ColSource) Count() (int64, bool) { return s.count, true }

// Scan implements Source by adapting the chunked scan to row batches.
func (s *ColSource) Scan() (Scanner, error) {
	cs, err := s.ScanChunks()
	if err != nil {
		return nil, err
	}
	arity := len(s.schema.Attributes)
	sc := &colRowScanner{cs: cs, ch: NewChunk(arity, DefaultBatchSize)}
	sc.batch = make([]Tuple, DefaultBatchSize)
	backing := make([]float64, DefaultBatchSize*arity)
	for i := range sc.batch {
		sc.batch[i].Values = backing[i*arity : (i+1)*arity]
	}
	return sc, nil
}

// ScanChunks implements ChunkedSource using the source's configured
// pipeline (asynchronous prefetch + parallel decode by default).
func (s *ColSource) ScanChunks() (ChunkScanner, error) {
	return s.ScanChunksPipeline(s.pipe)
}

// ScanChunksPipeline begins a chunked scan with an explicit pipeline
// configuration, overriding the source's own. cfg.Depth < 0 selects the
// synchronous reader.
func (s *ColSource) ScanChunksPipeline(cfg PipelineConfig) (ChunkScanner, error) {
	cfg = cfg.normalized()
	br, err := s.openBlockReader()
	if err != nil {
		return nil, err
	}
	if cfg.Depth <= 0 {
		return &colChunkScanner{
			src:   s,
			br:    br,
			dec:   NewChunk(len(s.schema.Attributes), s.blockRows),
			zones: make([]ColZone, len(s.schema.Attributes)),
			block: s.lo,
		}, nil
	}
	return newColPipeline(s, br, cfg), nil
}

// ScanChunkRange begins a chunked scan of blocks [lo, hi) under cfg, with
// a private reader and pipeline. The scans of any partition of the file's
// blocks into contiguous ranges together deliver exactly the full scan's
// rows, in file order within each range. Failures to set the range scan up
// (index load, open) are wrapped in a *BlockError locating the range's
// first block, so every range-scan failure is typed block-level.
func (s *ColSource) ScanChunkRange(lo, hi int64, cfg PipelineConfig) (ChunkScanner, error) {
	r, err := s.Range(lo, hi)
	if err != nil {
		return nil, err
	}
	sc, err := r.ScanChunksPipeline(cfg)
	if err != nil {
		return nil, &BlockError{Path: s.path, Block: lo, Err: err}
	}
	return sc, nil
}

// openBlockReader opens a fresh pass positioned at the view's first
// block, retrying transient open faults. Full-file views start right
// after the header; Range views resolve their start offset through the
// block index and seek to it when the filesystem supports seeking,
// falling back to read-and-discard otherwise (injected test filesystems
// are plain readers).
func (s *ColSource) openBlockReader() (*blockReader, error) {
	start, length := s.headerLen, s.dataLen
	if s.lo != 0 || s.hi != s.blocks {
		offs, err := s.BlockOffsets()
		if err != nil {
			return nil, err
		}
		start, length = offs[s.lo], offs[s.hi]-offs[s.lo]
	}
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
		remBlocks: s.hi - s.lo,
		remBytes:  length,
		block:     s.lo,
	}
	if sk, ok := rc.(io.Seeker); ok {
		if _, err := sk.Seek(start, io.SeekStart); err != nil {
			rc.Close()
			return nil, err
		}
		br.r = bufio.NewReaderSize(rc, 1<<20)
		return br, nil
	}
	br.r = bufio.NewReaderSize(rc, 1<<20)
	if err := br.discard(start); err != nil {
		br.Close()
		return nil, err
	}
	return br, nil
}

// decodeBlock verifies raw's checksum and decodes it into dst.
func (s *ColSource) decodeBlock(raw []byte, block int64, dst *Chunk, zones []ColZone) error {
	if len(raw) < 8 {
		return &BlockError{Path: s.path, Block: block, Err: ErrColTruncated}
	}
	body := raw[:len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(body, castagnoli) != want {
		return &BlockError{Path: s.path, Block: block, Err: ErrColChecksum}
	}
	if err := decodeBlockInto(body, s.blockRows, dst, zones, s.schema.ClassCount); err != nil {
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
// needed), returning io.EOF after the last block.
func (b *blockReader) readRawBlock(buf []byte) ([]byte, error) {
	if b.remBlocks <= 0 {
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
// Synchronous scanner

// colChunkScanner decodes blocks inline with the consumer — the Depth < 0
// baseline the pipeline is benchmarked against, and the path used when
// the pipeline is explicitly disabled.
type colChunkScanner struct {
	src   *ColSource
	br    *blockReader
	raw   []byte
	dec   *Chunk
	zones []ColZone
	pos   int
	block int64
	done  bool
	err   error
}

func (s *colChunkScanner) NextChunk(dst *Chunk) error {
	appended := false
	for !dst.Full() {
		if s.pos >= s.dec.Len() {
			if s.done || s.err != nil {
				break
			}
			raw, err := s.br.readRawBlock(s.raw)
			if err == io.EOF {
				s.done = true
				break
			}
			if err != nil {
				s.err = err
				break
			}
			s.raw = raw
			s.dec.Reset()
			if err := s.src.decodeBlock(raw, s.block, s.dec, s.zones); err != nil {
				s.err = err
				break
			}
			s.block++
			s.pos = 0
		}
		n := dst.Cap() - dst.Len()
		if rem := s.dec.Len() - s.pos; n > rem {
			n = rem
		}
		prev := dst.Len()
		dst.AppendFrom(s.dec, s.pos, n)
		dst.AbsorbZonesFrom(s.dec, prev)
		s.pos += n
		appended = true
	}
	if !appended {
		if s.err != nil {
			return s.err
		}
		if s.done {
			return io.EOF
		}
	}
	return nil
}

// PhysicalBytesRead implements PhysicalReader.
func (s *colChunkScanner) PhysicalBytesRead() int64 { return s.br.PhysicalBytesRead() }

func (s *colChunkScanner) Close() error { return s.br.Close() }

// ---------------------------------------------------------------------------
// Row adapter and format sniffing

// colRowScanner adapts the chunked scan to the row Scanner interface.
type colRowScanner struct {
	cs    ChunkScanner
	ch    *Chunk
	batch []Tuple
}

func (s *colRowScanner) Next() ([]Tuple, error) {
	s.ch.Reset()
	if err := s.cs.NextChunk(s.ch); err != nil {
		return nil, err
	}
	n := s.ch.Len()
	if n == 0 {
		return nil, io.EOF
	}
	for r := 0; r < n; r++ {
		s.ch.Gather(r, s.batch[r].Values)
		s.batch[r].Class = s.ch.Class(r)
	}
	return s.batch[:n], nil
}

func (s *colRowScanner) Close() error { return s.cs.Close() }

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
