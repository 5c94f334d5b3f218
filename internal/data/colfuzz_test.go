package data

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// colFuzzSeeds builds the seed corpus for FuzzColFileOpen: a well-formed
// file, the same file in the retired version-1 layout (which must fail to
// open), and torn and bit-flipped variants, so the mutator starts from
// inputs that reach deep into the decoder instead of dying at the magic
// check.
func colFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	dir := tb.TempDir()
	write := func(name string, n, blockRows int) []byte {
		path := filepath.Join(dir, name)
		if _, err := WriteColFile(path, NewMemSource(colTestSchema(), colTestTuples(n)), blockRows); err != nil {
			tb.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		return raw
	}
	v2 := write("v2.boatc", 300, 64)
	seeds := [][]byte{v2, version1Layout(v2), write("tiny.boatc", 1, 8)}
	// Torn variants: cut mid-header, mid-block, mid-index, mid-footer.
	for _, cut := range []int{4, 40, len(v2) / 2, len(v2) - 40, len(v2) - 9, len(v2) - 1} {
		if cut > 0 && cut < len(v2) {
			seeds = append(seeds, v2[:cut])
		}
	}
	// Bit flips: header, block body, CRC, offset index, footer.
	for _, off := range []int{9, 30, 120, len(v2) / 2, len(v2) - 44, len(v2) - 20} {
		if off >= 0 && off < len(v2) {
			flipped := append([]byte(nil), v2...)
			flipped[off] ^= 0x40
			seeds = append(seeds, flipped)
		}
	}
	seeds = append(seeds, []byte(colMagic), []byte("BOATCOLFxxxxxx"), nil)
	return seeds
}

// version1Layout rewrites a well-formed version-2 file into the retired
// version-1 layout: version byte 1, the same header and blocks, no offset
// index, and a 24-byte footer of row count, block count and end magic.
func version1Layout(v2 []byte) []byte {
	foot := v2[len(v2)-colFooterLen:]
	indexLen := int(binary.LittleEndian.Uint64(foot[16:]))
	v1 := append([]byte(nil), v2[:len(v2)-colFooterLen-indexLen]...)
	v1[len(colMagic)] = 1
	v1 = append(v1, foot[:16]...)
	return append(v1, colEndMagic...)
}

// fuzzScanAll drains one chunked scan, enforcing the post-open error
// contract: every failure after a successful OpenColFile must be a
// *BlockError (whose cause is typically ErrColTruncated or
// ErrColChecksum), never a panic, a hang, or an untyped error. Returns
// the rows seen and whether the scan completed cleanly.
func fuzzScanAll(t *testing.T, label string, csc ChunkScanner, width, blockRows int) (int64, bool) {
	t.Helper()
	defer csc.Close()
	ch := NewChunk(width, blockRows)
	var rows int64
	for i := 0; ; i++ {
		if i > 1<<20 {
			t.Fatalf("%s: scan did not terminate", label)
		}
		ch.Reset()
		err := csc.NextChunk(ch)
		if err == io.EOF {
			return rows, true
		}
		if err != nil {
			var be *BlockError
			if !errors.As(err, &be) {
				t.Fatalf("%s: scan error is not a *BlockError: %v", label, err)
			}
			return rows, false
		}
		rows += int64(ch.Len())
	}
}

// FuzzColFileOpen feeds arbitrary bytes through OpenColFile and one
// whole-file scan. Opening may fail with any descriptive error; once open
// succeeds, the invariants are: the scan terminates, post-open failures
// are typed *BlockError values, and a scan that completes delivers
// exactly Count() rows.
func FuzzColFileOpen(f *testing.F) {
	for _, s := range colFuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<20 {
			return
		}
		path := filepath.Join(t.TempDir(), "fuzz.boatc")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Skip(err)
		}
		s, err := OpenColFile(path)
		if err != nil {
			return // any open error is acceptable; panics are not
		}
		if s.Blocks() < 0 || s.BlockRows() <= 0 {
			t.Fatalf("open accepted impossible geometry: %d blocks x %d rows", s.Blocks(), s.BlockRows())
		}
		sc, err := s.ScanChunks()
		if err != nil {
			return
		}
		rows, ok := fuzzScanAll(t, "scan", sc, len(s.Schema().Attributes), s.BlockRows())
		if count, _ := s.Count(); ok && rows != count {
			t.Fatalf("completed scan delivered %d rows, Count() = %d", rows, count)
		}
	})
}

// blockFuzzSeeds builds the FuzzBlockDecode corpus: encoded blocks
// covering every segment encoding (const, u8/u16/u32 deltas, raw with
// NaN) plus mutated variants.
func blockFuzzSeeds() [][]byte {
	mk := func(fill func(i int) ([]float64, int)) []byte {
		ch := NewChunk(3, 64)
		for i := 0; i < 64; i++ {
			vals, cls := fill(i)
			ch.AppendTuple(Tuple{Values: vals, Class: cls})
		}
		return encodeBlock(nil, ch)
	}
	full := mk(func(i int) ([]float64, int) {
		return []float64{1000 + float64(i%200), float64(i % 8), 0.5 * float64(i)}, i % 3
	})
	konst := mk(func(i int) ([]float64, int) {
		return []float64{7, 1, 7}, 0
	})
	nan := mk(func(i int) ([]float64, int) {
		v := float64(i)
		if i%9 == 0 {
			v = math.NaN()
		}
		return []float64{v, float64(i % 4), 1e9 + float64(i)}, i % 3
	})
	seeds := [][]byte{full, konst, nan, nil, []byte{1, 0, 0, 0}}
	for _, off := range []int{0, 3, 5, 6, 20, len(full) / 2, len(full) - 1} {
		if off >= 0 && off < len(full) {
			flipped := append([]byte(nil), full...)
			flipped[off] ^= 0x10
			seeds = append(seeds, flipped)
		}
	}
	return seeds
}

// FuzzBlockDecode feeds arbitrary bytes to the block-body decoder (the
// stage after the CRC gate, so it must also survive checksum-valid but
// crafted bodies): it must return an error or a well-formed chunk whose
// class labels are within the schema's range — never panic or index out
// of bounds.
func FuzzBlockDecode(f *testing.F) {
	for _, s := range blockFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		const maxRows, width, classes = 64, 3, 3
		dst := NewChunk(width, maxRows)
		if err := decodeBlockInto(body, maxRows, dst, classes); err != nil {
			return
		}
		if dst.Len() <= 0 || dst.Len() > maxRows {
			t.Fatalf("decode accepted %d rows (cap %d)", dst.Len(), maxRows)
		}
		for _, c := range dst.Classes() {
			if c < 0 || int(c) >= classes {
				t.Fatalf("decode accepted out-of-range class label %d", c)
			}
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/ when BOAT_WRITE_FUZZ_CORPUS=1 — the same seeds f.Add
// registers, persisted in `go test fuzz v1` format so CI's fuzz smoke
// starts from them without a generation step.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("BOAT_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set BOAT_WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	write := func(target string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("FuzzColFileOpen", colFuzzSeeds(t))
	write("FuzzBlockDecode", blockFuzzSeeds())
}
