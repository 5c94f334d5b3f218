package data

import (
	"os"
	"path/filepath"
	"testing"
)

func TestFileRoundTrip(t *testing.T) {
	s := twoAttrSchema(t)
	tuples := makeTuples(2500)
	for _, format := range []Format{FormatCompact, FormatWide} {
		t.Run(format.name(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "data.boat")
			n, err := WriteFile(path, NewMemSource(s, tuples), format)
			if err != nil {
				t.Fatal(err)
			}
			if n != 2500 {
				t.Fatalf("wrote %d tuples", n)
			}
			fs, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !fs.Schema().Equal(s) {
				t.Error("schema did not round-trip")
			}
			if c, ok := fs.Count(); !ok || c != 2500 {
				t.Fatalf("Count = %d,%v", c, ok)
			}
			got, err := ReadAll(fs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tuples {
				if !got[i].Equal(tuples[i]) {
					t.Fatalf("tuple %d: got %v want %v", i, got[i], tuples[i])
				}
			}
		})
	}
}

func (f Format) name() string {
	if f == FormatCompact {
		return "compact"
	}
	return "wide"
}

func TestFileTupleSize(t *testing.T) {
	s := twoAttrSchema(t)
	if got := FormatCompact.TupleSize(s); got != 12 {
		t.Errorf("compact tuple size = %d, want 12", got)
	}
	if got := FormatWide.TupleSize(s); got != 20 {
		t.Errorf("wide tuple size = %d, want 20", got)
	}
	// The paper's 9-attribute schema must be 40 bytes in compact format.
	nine := make([]Attribute, 9)
	for i := range nine {
		nine[i] = Attribute{Name: string(rune('a' + i)), Kind: Numeric}
	}
	s9 := MustSchema(nine, 2)
	if got := FormatCompact.TupleSize(s9); got != 40 {
		t.Errorf("9-attribute compact tuple size = %d, want 40", got)
	}
}

func TestFileRescannable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.boat")
	s := twoAttrSchema(t)
	if _, err := WriteFile(path, NewMemSource(s, makeTuples(100)), FormatWide); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		n, err := CountTuplesByScan(fs)
		if err != nil || n != 100 {
			t.Fatalf("pass %d: %d tuples, err %v", pass, n, err)
		}
	}
}

// CountTuplesByScan forces a real scan (Count is known for files).
func CountTuplesByScan(src Source) (int64, error) {
	var n int64
	err := ForEach(src, func(Tuple) error { n++; return nil })
	return n, err
}

func TestOpenFileErrors(t *testing.T) {
	dir := t.TempDir()

	t.Run("missing", func(t *testing.T) {
		if _, err := OpenFile(filepath.Join(dir, "nope")); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		p := filepath.Join(dir, "junk")
		if err := os.WriteFile(p, []byte("NOTBOATXXXXXXXXXXXX"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFile(p); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		p := filepath.Join(dir, "trunc")
		if _, err := WriteFile(p, NewMemSource(twoAttrSchema(t), makeTuples(10)), FormatWide); err != nil {
			t.Fatal(err)
		}
		st, _ := os.Stat(p)
		if err := os.Truncate(p, st.Size()-3); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFile(p); err == nil {
			t.Error("expected error for torn tuple")
		}
	})
}

func TestFileWriterSchemaMismatch(t *testing.T) {
	fw, err := CreateFile(filepath.Join(t.TempDir(), "x"), twoAttrSchema(t), FormatWide)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	if err := fw.AppendChunk(NewChunk(1, 4)); err != ErrSchemaMismatch {
		t.Errorf("AppendChunk of a 1-attribute chunk = %v, want ErrSchemaMismatch", err)
	}
}

func TestFileWriterAppendAfterClose(t *testing.T) {
	fw, err := CreateFile(filepath.Join(t.TempDir(), "x"), twoAttrSchema(t), FormatWide)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	ch := NewChunk(2, 4)
	ch.AppendTuple(Tuple{Values: []float64{1, 2}, Class: 0})
	if err := fw.AppendChunk(ch); err == nil {
		t.Error("expected error appending after close")
	}
	if err := fw.Close(); err != nil {
		t.Errorf("double close should be a no-op, got %v", err)
	}
}

func TestCompactFormatPreservesIntegers(t *testing.T) {
	// The synthetic generator only emits integers below 2^24, which the
	// compact float32 encoding must preserve exactly.
	s := MustSchema([]Attribute{{Name: "v", Kind: Numeric}}, 2)
	var tuples []Tuple
	for _, v := range []float64{0, 1, 1350000, 16777215, 499999, 20000} {
		tuples = append(tuples, Tuple{Values: []float64{v}, Class: 0})
	}
	path := filepath.Join(t.TempDir(), "ints.boat")
	if _, err := WriteFile(path, NewMemSource(s, tuples), FormatCompact); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tuples {
		if got[i].Values[0] != tuples[i].Values[0] {
			t.Errorf("value %v not preserved: got %v", tuples[i].Values[0], got[i].Values[0])
		}
	}
}
