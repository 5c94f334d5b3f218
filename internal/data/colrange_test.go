package data

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// scanRowHashes drains a chunked scanner and returns the per-row hash
// sequence (Chunk.HashRows keys, file order).
func scanRowHashes(t *testing.T, label string, csc ChunkScanner, width, blockRows int) []uint64 {
	t.Helper()
	defer csc.Close()
	ch := NewChunk(width, blockRows)
	var out []uint64
	var buf []uint64
	for {
		ch.Reset()
		err := csc.NextChunk(ch)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		buf = ch.HashRows(buf[:0], nil)
		out = append(out, buf...)
	}
}

// shardRanges partitions [0, blocks) into w contiguous, near-equal
// ranges.
func shardRanges(blocks int64, w int) [][2]int64 {
	out := make([][2]int64, w)
	for i := 0; i < w; i++ {
		out[i] = [2]int64{int64(i) * blocks / int64(w), int64(i+1) * blocks / int64(w)}
	}
	return out
}

// TestColRangeUnionEqualsFullScan is the tentpole's core property: for
// random datasets x block sizes x worker counts, concatenating the
// OpenColRange shard scans in shard order reproduces the full-file scan
// exactly — same rows, same order (checked via the per-row hash
// sequence) — and every shard's Count() is exact.
func TestColRangeUnionEqualsFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schema := colTestSchema()
	width := len(schema.Attributes)
	for trial := 0; trial < 5; trial++ {
		n := 1 + rng.Intn(3000)
		blockRows := []int{32, 256, 1000}[trial%3]
		tuples := make([]Tuple, n)
		for i := range tuples {
			tuples[i] = Tuple{
				Values: []float64{rng.NormFloat64() * 1e4, float64(rng.Intn(8)), rng.Float64()},
				Class:  rng.Intn(3),
			}
		}
		path := writeColTestFile(t, tuples, blockRows)

		full, err := OpenColFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fsync, err := full.ScanChunksPipeline(PipelineConfig{Depth: -1})
		if err != nil {
			t.Fatal(err)
		}
		want := scanRowHashes(t, "full scan", fsync, width, blockRows)
		if int64(len(want)) != int64(n) {
			t.Fatalf("full scan saw %d rows, want %d", len(want), n)
		}

		for _, w := range []int{1, 2, 3, 8} {
			var got []uint64
			var total int64
			for _, r := range shardRanges(full.Blocks(), w) {
				shard, err := OpenColRange(path, r[0], r[1])
				if err != nil {
					t.Fatalf("OpenColRange[%d,%d): %v", r[0], r[1], err)
				}
				cnt, ok := shard.Count()
				if !ok {
					t.Fatalf("shard [%d,%d): Count not exact", r[0], r[1])
				}
				csc, err := shard.ScanChunksPipeline(PipelineConfig{Depth: 1, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				hashes := scanRowHashes(t, "shard scan", csc, width, blockRows)
				if int64(len(hashes)) != cnt {
					t.Fatalf("shard [%d,%d) scanned %d rows but Count() said %d", r[0], r[1], len(hashes), cnt)
				}
				total += cnt
				got = append(got, hashes...)
			}
			if total != int64(n) {
				t.Fatalf("n=%d blockRows=%d w=%d: shard counts sum to %d", n, blockRows, w, total)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d blockRows=%d w=%d: union has %d rows, want %d", n, blockRows, w, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d blockRows=%d w=%d: row %d hash mismatch", n, blockRows, w, i)
				}
			}
		}
	}
}

// TestColRangeV1HeaderWalk: version-1 files (no offset index) still
// support block ranges — the offsets are derived by the one-pass header
// walk — and the shard union matches the full scan.
func TestColRangeV1HeaderWalk(t *testing.T) {
	tuples := colTestTuples(777)
	path := filepath.Join(t.TempDir(), "v1.boatc")
	cw, err := createColFile(path, colTestSchema(), 100, colVersion1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range tuples {
		if err := cw.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := OpenColFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.version != colVersion1 {
		t.Fatalf("version = %d, want %d", s.version, colVersion1)
	}
	offs, err := s.BlockOffsets()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(offs)) != s.Blocks()+1 {
		t.Fatalf("header walk produced %d offsets, want %d", len(offs), s.Blocks()+1)
	}
	width := len(s.Schema().Attributes)
	fsync, err := s.ScanChunksPipeline(PipelineConfig{Depth: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := scanRowHashes(t, "v1 full", fsync, width, 100)
	var got []uint64
	for _, r := range shardRanges(s.Blocks(), 3) {
		csc, err := s.ScanChunkRange(r[0], r[1], PipelineConfig{Depth: -1})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, scanRowHashes(t, "v1 shard", csc, width, 100)...)
	}
	if len(got) != len(want) {
		t.Fatalf("v1 union has %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("v1 union row %d hash mismatch", i)
		}
	}
}

// TestColRangeCorruptIndex: flipping a byte inside the version-2 offset
// index leaves full-file scans untouched (they never read the index) but
// fails any range scan with a typed ErrColChecksum.
func TestColRangeCorruptIndex(t *testing.T) {
	path := writeColTestFile(t, colTestTuples(500), 64)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The index sits between the block region and the 32-byte footer;
	// flip a byte a little before the footer's index-CRC tail.
	raw[len(raw)-colFooterLen-6] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := OpenColFile(path)
	if err != nil {
		t.Fatalf("open should not read the index: %v", err)
	}
	width := len(s.Schema().Attributes)
	fsync, err := s.ScanChunksPipeline(PipelineConfig{Depth: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rows := scanRowHashes(t, "full scan over corrupt index", fsync, width, 64); len(rows) != 500 {
		t.Fatalf("full scan saw %d rows, want 500", len(rows))
	}
	if _, err := s.ScanChunkRange(0, s.Blocks()/2, PipelineConfig{Depth: -1}); !errors.Is(err, ErrColChecksum) {
		t.Fatalf("range scan over corrupt index = %v, want ErrColChecksum", err)
	}
}

// TestColRangeValidation pins the Range contract: out-of-bounds and
// range-of-range requests are rejected, empty ranges scan zero rows.
func TestColRangeValidation(t *testing.T) {
	path := writeColTestFile(t, colTestTuples(300), 64)
	s, err := OpenColFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Range(-1, 2); err == nil {
		t.Error("Range(-1,2) accepted")
	}
	if _, err := s.Range(0, s.Blocks()+1); err == nil {
		t.Error("Range past end accepted")
	}
	if _, err := s.Range(3, 2); err == nil {
		t.Error("inverted Range accepted")
	}
	view, err := s.Range(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.Range(0, 1); err == nil {
		t.Error("range of a range accepted")
	}
	if lo, hi := view.BlockRange(); lo != 1 || hi != 3 {
		t.Errorf("BlockRange = [%d,%d), want [1,3)", lo, hi)
	}
	empty, err := s.Range(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cnt, _ := empty.Count(); cnt != 0 {
		t.Errorf("empty range Count = %d", cnt)
	}
	csc, err := empty.ScanChunksPipeline(PipelineConfig{Depth: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rows := scanRowHashes(t, "empty range", csc, len(s.Schema().Attributes), 64); len(rows) != 0 {
		t.Errorf("empty range scanned %d rows", len(rows))
	}
}
