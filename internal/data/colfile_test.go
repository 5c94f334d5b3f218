package data

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

func colTestSchema() *Schema {
	return MustSchema([]Attribute{
		{Name: "salary", Kind: Numeric},
		{Name: "grade", Kind: Categorical, Cardinality: 8},
		{Name: "ratio", Kind: Numeric},
	}, 3)
}

func colTestTuples(n int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{
			Values: []float64{
				1000 + float64(i%250),  // u8-encodable integer span
				float64(i % 8),         // small categorical codes
				0.5 + float64(i%7)*0.5, // fractional -> raw encoding
			},
			Class: i % 3,
		}
	}
	return out
}

func writeColTestFile(t *testing.T, tuples []Tuple, blockRows int) string {
	t.Helper()
	path := t.TempDir() + "/d.boatc"
	src := NewMemSource(colTestSchema(), tuples)
	if n, err := WriteColFile(path, src, blockRows); err != nil || n != int64(len(tuples)) {
		t.Fatalf("WriteColFile = (%d, %v), want (%d, nil)", n, err, len(tuples))
	}
	return path
}

// requireSourceTuples fails unless the row scan of src (ScanRows over its
// chunked scan) delivers want, tuple for tuple.
func requireSourceTuples(t *testing.T, label string, src Source, want []Tuple) {
	t.Helper()
	sc, err := src.Scan()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	defer sc.Close()
	var got []Tuple
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got = append(got, CloneTuples(batch)...)
	}
	requireTuples(t, label, got, want)
}

// requireTuples fails unless got is want, tuple for tuple (NaN equals
// NaN).
func requireTuples(t *testing.T, label string, got, want []Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Class != want[i].Class {
			t.Fatalf("%s: tuple %d class %d, want %d", label, i, got[i].Class, want[i].Class)
		}
		for a, v := range got[i].Values {
			w := want[i].Values[a]
			if v != w && !(v != v && w != w) {
				t.Fatalf("%s: tuple %d attr %d = %v, want %v", label, i, a, v, w)
			}
		}
	}
}

// TestColFileRoundTrip: every tuple written comes back bit-identical, on
// the row adapter and the chunked scan, including a short final block.
func TestColFileRoundTrip(t *testing.T) {
	tuples := colTestTuples(1000)
	path := writeColTestFile(t, tuples, 128) // 7 full blocks + 104-row tail

	s, err := OpenColFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := s.Count(); !ok || n != 1000 {
		t.Fatalf("Count = (%d, %v), want (1000, true)", n, ok)
	}
	if s.Blocks() != 8 || s.BlockRows() != 128 {
		t.Fatalf("Blocks/BlockRows = %d/%d, want 8/128", s.Blocks(), s.BlockRows())
	}
	requireSourceTuples(t, "row adapter", s, tuples)

	sc, err := s.ScanChunks()
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainChunks(sc, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	requireTuples(t, "chunked", got, tuples)
}

// TestColFileNaN: NaN values survive the round trip (they force the raw
// encoding and set the column header's NaN flag).
func TestColFileNaN(t *testing.T) {
	tuples := colTestTuples(100)
	tuples[3].Values[0] = math.NaN()
	tuples[97].Values[2] = math.NaN()
	path := writeColTestFile(t, tuples, 64)
	s, err := OpenColFile(path)
	if err != nil {
		t.Fatal(err)
	}
	requireSourceTuples(t, "with NaN", s, tuples)
}

// TestColumnEncodings drives appendColumn/decodeColumn through every
// segment encoding and checks the header fields computed alongside.
func TestColumnEncodings(t *testing.T) {
	cases := []struct {
		name    string
		col     []float64
		enc     byte
		valid   bool
		codesOK bool
		hasNaN  bool
	}{
		{"const", []float64{7, 7, 7, 7}, colEncConst, true, true, false},
		{"u8", []float64{0, 100, 200, 13}, colEncU8, true, false, false},
		{"u8-negative", []float64{-5, 0, 5, -2}, colEncU8, true, false, false},
		{"u16", []float64{0, 60000, 31337, 2}, colEncU16, true, false, false},
		{"u32", []float64{0, 1e9, 77, 12345678}, colEncU32, true, false, false},
		{"raw-fractional", []float64{0.5, 1.25, -3.75}, colEncRaw, true, false, false},
		{"raw-nan", []float64{1, math.NaN(), 3}, colEncRaw, true, false, true},
		{"codes", []float64{0, 3, 63, 3}, colEncU8, true, true, false},
		{"all-nan", []float64{math.NaN(), math.NaN()}, colEncRaw, false, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := appendColumn(nil, tc.col)
			if got := buf[0]; got != tc.enc {
				t.Fatalf("encoding = %d, want %d", got, tc.enc)
			}
			dst := make([]float64, len(tc.col))
			off, err := decodeColumn(buf, 0, len(tc.col), dst)
			if err != nil {
				t.Fatal(err)
			}
			if off != len(buf) {
				t.Fatalf("decode consumed %d of %d bytes", off, len(buf))
			}
			for i, v := range dst {
				w := tc.col[i]
				if v != w && !(v != v && w != w) {
					t.Fatalf("row %d = %v, want %v", i, v, w)
				}
			}
			requireColHeader(t, tc.name, buf, 0, tc.col)
			if flags := buf[1]; flags&colFlagZoneValid != 0 != tc.valid ||
				flags&colFlagCodesValid != 0 != tc.codesOK || flags&colFlagHasNaN != 0 != tc.hasNaN {
				t.Fatalf("flags %03b, want valid=%v codesOK=%v hasNaN=%v", flags, tc.valid, tc.codesOK, tc.hasNaN)
			}
		})
	}
}

// requireColHeader fails unless the column header at body[off:] records
// col's zone fields: min/max over its non-NaN values (when it has any),
// the NaN flag, and the code bitmap when every value is an integer code
// in [0, 64).
func requireColHeader(t *testing.T, label string, body []byte, off int, col []float64) {
	t.Helper()
	_, flags, min, max, codes, _, _, err := readColHeader(body, off, len(col))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	var hasNaN bool
	var want uint64
	codesOK := len(col) > 0
	for _, v := range col {
		if v != v {
			hasNaN, codesOK = true, false
			continue
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
		if v != math.Trunc(v) || v < 0 || v >= 64 {
			codesOK = false
		} else {
			want |= 1 << uint(v)
		}
	}
	valid := lo <= hi
	if flags&colFlagZoneValid != 0 != valid || flags&colFlagHasNaN != 0 != hasNaN || flags&colFlagCodesValid != 0 != codesOK {
		t.Fatalf("%s: flags %03b, want valid=%v hasNaN=%v codesOK=%v", label, flags, valid, hasNaN, codesOK)
	}
	if valid && (min != lo || max != hi) {
		t.Fatalf("%s: header bounds [%v, %v], want [%v, %v]", label, min, max, lo, hi)
	}
	if !codesOK {
		want = 0
	}
	if codes != want {
		t.Fatalf("%s: codes bitmap %b, want %b", label, codes, want)
	}
}

// TestColFileZones: the writer records every block's zone-map header
// fields (min/max, NaN flag, code bitmap) per column, for the readers of
// files already written, though no reader uses them beyond min as the
// delta base; and a chunk spanning two blocks decodes the written rows.
func TestColFileZones(t *testing.T) {
	tuples := make([]Tuple, 96) // sorted ages, 3 blocks of 32
	for i := range tuples {
		tuples[i] = Tuple{Values: []float64{float64(i), float64(i % 4), 0.5}, Class: 0}
	}
	tuples[40].Values[2] = math.NaN() // block 1 only
	path := writeColTestFile(t, tuples, 32)
	s, err := OpenColFile(path)
	if err != nil {
		t.Fatal(err)
	}

	br, err := s.openBlockReader()
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	for b := 0; b < 3; b++ {
		raw, err := br.readRawBlock(nil)
		if err != nil {
			t.Fatal(err)
		}
		body := raw[:len(raw)-4]
		off := 4
		for a := 0; a < 3; a++ {
			col := make([]float64, 32)
			for i := range col {
				col[i] = tuples[32*b+i].Values[a]
			}
			requireColHeader(t, fmt.Sprintf("block %d column %d", b, a), body, off, col)
			_, _, _, _, _, seg, next, _ := readColHeader(body, off, len(col))
			off = next + seg
		}
	}

	// Two blocks per chunk: the rows decode in file order.
	sc, err := s.ScanChunks()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	wide := NewChunk(3, 64)
	for _, want := range [][]Tuple{tuples[:64], tuples[64:]} {
		wide.Reset()
		if err := sc.NextChunk(wide); err != nil {
			t.Fatal(err)
		}
		requireTuples(t, "two-block chunk", wide.GatherRows(nil), want)
	}
}

// TestColFileTornFile: a file missing its footer — the shape a crashed
// writer leaves behind — is rejected at open with ErrColTruncated.
func TestColFileTornFile(t *testing.T) {
	path := writeColTestFile(t, colTestTuples(300), 128)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{5, colFooterLen, st.Size() / 2} {
		if err := os.Truncate(path, st.Size()-cut); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenColFile(path); !errors.Is(err, ErrColTruncated) {
			t.Fatalf("open after losing %d bytes: %v, want ErrColTruncated", cut, err)
		}
	}
}

// TestColFileChecksumMismatch: a flipped payload byte surfaces as a typed
// block-located checksum error at every pipeline depth, after the blocks
// before it were delivered intact.
func TestColFileChecksumMismatch(t *testing.T) {
	tuples := colTestTuples(300)
	path := writeColTestFile(t, tuples, 128)
	s, err := OpenColFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte inside the second block's body.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 1)
	blk1 := s.headerLen + 4 + blockLenAt(t, path, s.headerLen) + 4 // past block 0
	if _, err := f.ReadAt(raw, blk1+10); err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xFF
	if _, err := f.WriteAt(raw, blk1+10); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, depth := range []int{1, pipelineDepth} {
		sc, err := s.scanPipeline(depth, decodeWorkers(), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, scanErr := drainChunks(sc, 3, 128)
		if !errors.Is(scanErr, ErrColChecksum) {
			t.Fatalf("depth %d: scan error %v, want ErrColChecksum", depth, scanErr)
		}
		var be *BlockError
		if !errors.As(scanErr, &be) || be.Block != 1 {
			t.Fatalf("depth %d: error %v, want BlockError at block 1", depth, scanErr)
		}
		requireTuples(t, fmt.Sprintf("depth %d: block 0", depth), got, tuples[:128])
	}
}

// rewriteFooter overwrites the footer's row count, block count and index
// length in place, leaving the blocks and the end magic untouched.
func rewriteFooter(t *testing.T, path string, rows, blocks, indexLen uint64) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var foot [24]byte
	binary.LittleEndian.PutUint64(foot[0:], rows)
	binary.LittleEndian.PutUint64(foot[8:], blocks)
	binary.LittleEndian.PutUint64(foot[16:], indexLen)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(foot[:], st.Size()-colFooterLen); err != nil {
		t.Fatal(err)
	}
}

// requireFooterMismatch fails unless every scan of path ends in a
// *BlockError at block wantBlock wrapping ErrColTruncated.
func requireFooterMismatch(t *testing.T, path string, wantBlock int64) {
	t.Helper()
	s, err := OpenColFile(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var be *BlockError
	if _, err := ReadAll(s); !errors.Is(err, ErrColTruncated) || !errors.As(err, &be) || be.Block != wantBlock {
		t.Fatalf("ReadAll error %v, want ErrColTruncated in a BlockError at block %d", err, wantBlock)
	}
	sc, err := s.ScanChunks()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ch := NewChunk(len(s.Schema().Attributes), 64)
	for {
		ch.Reset()
		err := sc.NextChunk(ch)
		if err == nil && ch.Len() > 0 {
			continue
		}
		if !errors.Is(err, ErrColTruncated) || !errors.As(err, &be) || be.Block != wantBlock {
			t.Fatalf("chunked scan ended with %v, want ErrColTruncated in a BlockError at block %d", err, wantBlock)
		}
		return
	}
}

// TestColFileFooterRowCountMismatch: a footer that declares fewer rows
// than its blocks hold still opens (the count fits the block geometry),
// but every scan fails after the last block instead of delivering rows
// Count() never promised.
func TestColFileFooterRowCountMismatch(t *testing.T) {
	path := writeColTestFile(t, colTestTuples(300), 64) // 5 blocks
	rewriteFooter(t, path, 290, 5, 8*5+4)
	s, err := OpenColFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Count(); n != 290 {
		t.Fatalf("Count = %d, want the footer's 290", n)
	}
	requireFooterMismatch(t, path, 5)
}

// TestColFileFooterDropsBlock: a footer that declares one block (and its
// rows) fewer than the file holds, with a matching index length, opens
// cleanly; every scan must then fail on the unread fifth block instead of
// silently dropping it.
func TestColFileFooterDropsBlock(t *testing.T) {
	path := writeColTestFile(t, colTestTuples(300), 64) // 5 blocks
	rewriteFooter(t, path, 256, 4, 8*4+4)
	requireFooterMismatch(t, path, 4)
}

// TestColFileRejectsVersion1: a file in the retired version-1 layout
// fails to open with an error naming its version.
func TestColFileRejectsVersion1(t *testing.T) {
	path := writeColTestFile(t, colTestTuples(300), 64)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, version1Layout(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenColFile(path)
	if err == nil || !strings.Contains(err.Error(), "unsupported columnar version 1") {
		t.Fatalf("open of a version-1 file = %v, want an unsupported-version error", err)
	}
}

// blockLenAt reads the length prefix of the block starting at off.
func blockLenAt(t *testing.T, path string, off int64) int64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var pre [4]byte
	if _, err := f.ReadAt(pre[:], off); err != nil {
		t.Fatal(err)
	}
	return int64(uint32(pre[0]) | uint32(pre[1])<<8 | uint32(pre[2])<<16 | uint32(pre[3])<<24)
}

// TestColFileImplausibleBlockLength: a mangled length prefix is corruption,
// reported block-precisely, not an allocation request.
func TestColFileImplausibleBlockLength(t *testing.T) {
	path := writeColTestFile(t, colTestTuples(200), 128)
	s, err := OpenColFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0x7F}, s.headerLen); err != nil {
		t.Fatal(err)
	}
	f.Close()
	src, err := OpenColFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := src.ScanChunks()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ch := NewChunk(3, 128)
	scanErr := sc.NextChunk(ch)
	var be *BlockError
	if !errors.Is(scanErr, ErrColTruncated) || !errors.As(scanErr, &be) || be.Block != 0 {
		t.Fatalf("scan error %v, want ErrColTruncated in a BlockError at block 0", scanErr)
	}
}

// TestOpenSniffsFormat: Open dispatches on the magic to the right source
// type and rejects files that are neither format.
func TestOpenSniffsFormat(t *testing.T) {
	tuples := colTestTuples(50)
	colPath := writeColTestFile(t, tuples, 0)
	dir := t.TempDir()
	rowPath := dir + "/d.boat"
	if _, err := WriteFile(rowPath, NewMemSource(colTestSchema(), tuples), FormatCompact); err != nil {
		t.Fatal(err)
	}

	cs, err := Open(colPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cs.(*ColSource); !ok {
		t.Fatalf("Open(%s) = %T, want *ColSource", colPath, cs)
	}
	rs, err := Open(rowPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rs.(*FileSource); !ok {
		t.Fatalf("Open(%s) = %T, want *FileSource", rowPath, rs)
	}
	requireSourceTuples(t, "sniffed columnar", cs, tuples)
	requireSourceTuples(t, "sniffed row", rs, tuples)

	junk := dir + "/junk"
	if err := os.WriteFile(junk, []byte("definitely not a dataset"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(junk); err == nil {
		t.Fatal("Open accepted a non-dataset file")
	}
}

// TestWriteColFileConvertsRowFile: the conversion path (row FileSource in,
// columnar out) preserves the tuple stream exactly.
func TestWriteColFileConvertsRowFile(t *testing.T) {
	tuples := colTestTuples(700)
	dir := t.TempDir()
	rowPath := dir + "/d.boat"
	if _, err := WriteFile(rowPath, NewMemSource(colTestSchema(), tuples), FormatCompact); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(rowPath)
	if err != nil {
		t.Fatal(err)
	}
	colPath := dir + "/d.boatc"
	if n, err := WriteColFile(colPath, fs, 256); err != nil || n != 700 {
		t.Fatalf("convert = (%d, %v), want (700, nil)", n, err)
	}
	cs, err := OpenColFile(colPath)
	if err != nil {
		t.Fatal(err)
	}
	requireSourceTuples(t, "converted", cs, tuples)
}
