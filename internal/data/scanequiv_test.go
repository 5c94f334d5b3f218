// The scan-equivalence table lives in package data_test because its
// sources include iostats.Tracked wrappers and a spill buffer poisoned
// through internal/faultfs, both of which import internal/data.
package data_test

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/faultfs"
	"github.com/boatml/boat/internal/iostats"
)

// equivTuples returns n tuples of a numeric and a categorical attribute.
// The numeric values carry a fraction, so the compact (float32) file
// format rounds them.
func equivTuples(n int) (*data.Schema, []data.Tuple) {
	schema := data.MustSchema([]data.Attribute{
		{Name: "x", Kind: data.Numeric},
		{Name: "c", Kind: data.Categorical, Cardinality: 4},
	}, 2)
	out := make([]data.Tuple, n)
	for i := range out {
		out[i] = data.Tuple{Values: []float64{float64(i) + 0.1, float64(i % 4)}, Class: i % 2}
	}
	return schema, out
}

// float32Rounded is what the compact row format stores for tuples.
func float32Rounded(tuples []data.Tuple) []data.Tuple {
	out := data.CloneTuples(tuples)
	for _, tp := range out {
		for a, v := range tp.Values {
			tp.Values[a] = float64(float32(v))
		}
	}
	return out
}

// netOfRemovals is the reference semantics of a bag: the added tuples in
// order, each removal cancelling the first not yet cancelled occurrence.
func netOfRemovals(added, removed []data.Tuple) []data.Tuple {
	pending := map[string]int{}
	for _, tp := range removed {
		pending[tp.Key()]++
	}
	var out []data.Tuple
	for _, tp := range added {
		if k := tp.Key(); pending[k] > 0 {
			pending[k]--
			continue
		}
		out = append(out, tp)
	}
	return out
}

// drainChunks reads a chunked scan of src at the given chunk capacity
// into row copies.
func drainChunks(t *testing.T, src data.Source, rows int) []data.Tuple {
	t.Helper()
	var out []data.Tuple
	err := data.ForEachChunk(src, rows, func(ch *data.Chunk) error {
		if ch.Len() > rows {
			t.Fatalf("chunk of %d rows exceeds capacity %d", ch.Len(), rows)
		}
		out = append(out, ch.GatherRows(nil)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// drainRows reads src through the ScanRows adapter into row copies.
func drainRows(t *testing.T, src data.Source) []data.Tuple {
	t.Helper()
	sc, err := data.ScanRows(src)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var out []data.Tuple
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data.CloneTuples(batch)...)
	}
}

func requireTuples(t *testing.T, label string, got, want []data.Tuple) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: tuple %d = %v, want %v", label, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", label, len(got), len(want))
	}
}

// rowOnlySource exposes only the row form of a source: its chunked scan
// packs the ScanRows batches of the inner source back into chunks, so
// reading it pins the adapter's round trip.
type rowOnlySource struct{ data.Source }

func (r rowOnlySource) ScanChunks() (data.ChunkScanner, error) {
	sc, err := data.ScanRows(r.Source)
	if err != nil {
		return nil, err
	}
	return &rowPacker{sc: sc}, nil
}

type rowPacker struct {
	sc    data.Scanner
	batch []data.Tuple
}

func (p *rowPacker) NextChunk(dst *data.Chunk) error {
	start := dst.Len()
	for !dst.Full() {
		if len(p.batch) == 0 {
			b, err := p.sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			p.batch = b
		}
		dst.AppendTuple(p.batch[0])
		p.batch = p.batch[1:]
	}
	if dst.Len() == start {
		return io.EOF
	}
	return nil
}

func (p *rowPacker) Close() error { return p.sc.Close() }

// TestScanChunksEquivalence: every source and buffer delivers the same
// tuple sequence — the one its row scan has always delivered — through
// its chunked scan at any chunk size and through the ScanRows adapter,
// bare and wrapped in iostats.Tracked. The buffers cover the in-memory
// spill buffer, one spilled across a durable file prefix and an
// unflushed write buffer, one poisoned by a permanent write fault
// mid-flush, and a spilled bag whose view filters pending removals
// (including one of two identical tuples: the first occurrence goes).
func TestScanChunksEquivalence(t *testing.T) {
	schema, tuples := equivTuples(2*data.DefaultChunkRows + 37)
	mem := data.NewMemSource(schema, tuples)
	type tcase struct {
		src  data.Source
		want []data.Tuple
	}
	cases := map[string]tcase{
		"mem":     {mem, tuples},
		"rowOnly": {rowOnlySource{mem}, tuples},
	}

	dir := t.TempDir()
	for _, f := range []data.Format{data.FormatWide, data.FormatCompact} {
		path := filepath.Join(dir, fmt.Sprintf("d%d.bin", f))
		if _, err := data.WriteFile(path, mem, f); err != nil {
			t.Fatal(err)
		}
		fs, err := data.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := tuples
		if f == data.FormatCompact {
			want = float32Rounded(tuples)
		}
		cases[fmt.Sprintf("file-format%d", f)] = tcase{fs, want}
	}
	colPath := filepath.Join(dir, "d.boatc")
	if _, err := data.WriteColFile(colPath, mem, 1000); err != nil {
		t.Fatal(err)
	}
	col, err := data.OpenColFile(colPath)
	if err != nil {
		t.Fatal(err)
	}
	cases["col"] = tcase{col, tuples}

	spill := func(budget int64, fs data.FS) (*data.SpillBuffer, []data.Tuple) {
		sb := data.NewSpillBufferEnv(schema, data.SpillEnv{
			Dir: dir, Budget: data.NewMemBudget(budget), FS: fs, Retry: noSleep,
		})
		t.Cleanup(func() { sb.Close() })
		for i, tp := range tuples {
			if err := sb.Append(tp); err != nil {
				if sb.Err() == nil {
					t.Fatal(err)
				}
				return sb, tuples[:i]
			}
		}
		return sb, tuples
	}
	sb, want := spill(0, nil)
	cases["spill-mem"] = tcase{sb, want}
	sb, want = spill(1000, nil)
	if sb.SpilledTuples() == 0 {
		t.Fatal("spilled buffer holds everything in memory")
	}
	cases["spill-file"] = tcase{sb, want}
	sb, want = spill(1000, faultfs.New(nil, faultfs.Config{Seed: 1, WriteProb: 1, MaxFaults: 1}))
	if sb.Err() == nil || len(want) == len(tuples) {
		t.Fatalf("write fault did not poison the buffer (err %v, %d tuples kept)", sb.Err(), len(want))
	}
	cases["spill-poisoned"] = tcase{sb, want}

	bag := data.NewTupleBagEnv(schema, data.SpillEnv{Dir: dir, Budget: data.NewMemBudget(1000)})
	t.Cleanup(func() { bag.Close() })
	added := append(append([]data.Tuple(nil), tuples...), tuples[5])
	for _, tp := range added {
		if err := bag.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	removed := []data.Tuple{tuples[5], tuples[0], tuples[999], tuples[1000], tuples[4500], tuples[len(tuples)-1]}
	for _, tp := range removed {
		if err := bag.Remove(tp); err != nil {
			t.Fatal(err)
		}
	}
	cases["bag-removals"] = tcase{bag.Source(), netOfRemovals(added, removed)}

	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	for _, name := range names {
		c := cases[name]
		cases["tracked-"+name] = tcase{iostats.Tracked(c.src, &iostats.Stats{}), c.want}
	}
	for name, c := range cases {
		for _, rows := range []int{1, 7, 64, data.DefaultChunkRows} {
			t.Run(fmt.Sprintf("%s/rows=%d", name, rows), func(t *testing.T) {
				requireTuples(t, name, drainChunks(t, c.src, rows), c.want)
			})
		}
		t.Run(name+"/ScanRows", func(t *testing.T) {
			requireTuples(t, name, drainRows(t, c.src), c.want)
		})
	}
}
