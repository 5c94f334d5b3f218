package core

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// saveLoad round-trips bt through Save and Load, and requires the loaded
// model to save to the same bytes — leaves held as presorted families
// included, which load back as bags.
func saveLoad(t *testing.T, bt *Tree, cfg Config) *Tree {
	t.Helper()
	var buf bytes.Buffer
	if err := bt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := bytes.Clone(buf.Bytes())
	loaded, err := Load(&buf, bt.Schema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := loaded.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), saved) {
		t.Fatal("the loaded model saves to different bytes")
	}
	return loaded
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, m := range []split.Method{split.NewGini(), split.NewQuestLike()} {
		t.Run(m.Name(), func(t *testing.T) {
			cfg := Config{Method: m, MaxDepth: 5, MinSplit: 100, SampleSize: 1500, Seed: 3}
			src := gen.MustSource(gen.Config{Function: 1, Noise: 0.08}, 6000, 1)
			bt, err := Build(src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer bt.Close()
			loaded := saveLoad(t, bt, cfg)
			defer loaded.Close()
			if !loaded.Tree().Equal(bt.Tree()) {
				t.Fatalf("loaded tree differs: %s", loaded.Tree().Diff(bt.Tree()))
			}
			if err := loaded.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSaveLoadResumesMaintenance is the point of persistence: after a
// round-trip, incremental updates behave identically to the original.
func TestSaveLoadResumesMaintenance(t *testing.T) {
	cfg := Config{Method: split.NewGini(), MaxDepth: 5, MinSplit: 100, SampleSize: 1500, Seed: 7}
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.10}, 6000, 1)
	bt, err := Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	// First update before checkpointing.
	chunk1 := gen.MustSource(gen.Config{Function: 1, Noise: 0.10}, 3000, 2)
	if _, err := bt.Insert(chunk1); err != nil {
		t.Fatal(err)
	}

	loaded := saveLoad(t, bt, cfg)
	defer loaded.Close()

	// Apply the same further updates to both instances.
	chunk2 := gen.MustSource(gen.Config{Function: 1, Noise: 0.10}, 3000, 3)
	if _, err := bt.Insert(chunk2); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Insert(chunk2); err != nil {
		t.Fatal(err)
	}
	if !loaded.Tree().Equal(bt.Tree()) {
		t.Fatalf("after insert, loaded diverged: %s", loaded.Tree().Diff(bt.Tree()))
	}
	if _, err := bt.Delete(chunk1); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Delete(chunk1); err != nil {
		t.Fatal(err)
	}
	if !loaded.Tree().Equal(bt.Tree()) {
		t.Fatalf("after delete, loaded diverged: %s", loaded.Tree().Diff(bt.Tree()))
	}
	if err := loaded.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// And both still match the reference.
	all, _ := data.ReadAll(src)
	c2, _ := data.ReadAll(chunk2)
	ref := inmem.Build(src.Schema(), append(all, c2...), inmem.Config{
		Method: split.NewGini(), MaxDepth: 5, MinSplit: 100,
	})
	requireEqual(t, "post-restore maintenance", loaded.Tree(), ref)
}

func TestSaveLoadStopMode(t *testing.T) {
	cfg := Config{
		Method: split.NewGini(), StopThreshold: 1200, StopAtThreshold: true,
		SampleSize: 1500, Seed: 5,
	}
	src := gen.MustSource(gen.Config{Function: 6, Noise: 0.05}, 9000, 4)
	bt, err := Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	loaded := saveLoad(t, bt, cfg)
	defer loaded.Close()
	if !loaded.Tree().Equal(bt.Tree()) {
		t.Fatal("stop-mode round trip differs")
	}
}

func TestSaveLoadWithSpill(t *testing.T) {
	cfg := Config{
		Method: split.NewGini(), MaxDepth: 4, MinSplit: 100,
		SampleSize: 1000, Seed: 9, MemBudgetTuples: 300, TempDir: t.TempDir(),
	}
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 5000, 6)
	bt, err := Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	loaded := saveLoad(t, bt, cfg)
	defer loaded.Close()
	if !loaded.Tree().Equal(bt.Tree()) {
		t.Fatal("spilled round trip differs")
	}
}

func TestLoadRejectsMismatchedConfig(t *testing.T) {
	cfg := Config{Method: split.NewGini(), MaxDepth: 5, MinSplit: 100, SampleSize: 1000, Seed: 1}
	src := gen.MustSource(gen.Config{Function: 1}, 2000, 1)
	bt, err := Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	var buf bytes.Buffer
	if err := bt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.MaxDepth = 9
	if _, err := Load(bytes.NewReader(buf.Bytes()), src.Schema(), other); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("mismatched config not rejected: %v", err)
	}
	otherMethod := cfg
	otherMethod.Method = split.NewEntropy()
	if _, err := Load(bytes.NewReader(buf.Bytes()), src.Schema(), otherMethod); err == nil {
		t.Error("mismatched method not rejected")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cfg := Config{Method: split.NewGini()}
	schema := gen.Schema(0)
	if _, err := Load(strings.NewReader("not a model"), schema, cfg); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(""), schema, cfg); err == nil {
		t.Error("empty stream accepted")
	}
	// Truncated stream.
	src := gen.MustSource(gen.Config{Function: 1}, 2000, 1)
	bt, err := Build(src, Config{Method: split.NewGini(), SampleSize: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	var buf bytes.Buffer
	if err := bt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Load(bytes.NewReader(raw[:len(raw)/2]), src.Schema(), Config{Method: split.NewGini()}); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestSaveClosedTree(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1}, 500, 1)
	bt, err := Build(src, Config{Method: split.NewGini(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bt.Close()
	var buf bytes.Buffer
	if err := bt.Save(&buf); err == nil {
		t.Error("saving a closed tree should fail")
	}
}

// TestSaveFileLoadCompilePredict closes the serving loop over the model
// persistence path: SaveFile -> LoadFile -> materialize -> Compile ->
// ClassifyChunk must reproduce the original tree's predictions exactly.
func TestSaveFileLoadCompilePredict(t *testing.T) {
	cfg := Config{Method: split.NewGini(), MaxDepth: 6, MinSplit: 50, SampleSize: 1500, Seed: 5}
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 6000, 1)
	bt, err := Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	path := t.TempDir() + "/model.boatmodel"
	if err := bt.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(f, bt.Schema(), cfg)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	orig := bt.Tree()
	flat, err := tree.Compile(loaded.Tree())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, data.DefaultChunkRows)
	var row int
	err = data.ForEachChunk(src, data.DefaultChunkRows, func(ch *data.Chunk) error {
		flat.ClassifyChunk(ch, out)
		for i := 0; i < ch.Len(); i++ {
			if want := orig.Classify(ch.TupleCopy(i)); out[i] != want {
				t.Fatalf("row %d: loaded+compiled predicts %d, original %d", row+i, out[i], want)
			}
		}
		row += ch.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if row == 0 {
		t.Fatal("no tuples compared")
	}
}

// TestSaveDuringInsert: Save serializes with updates, so saves racing a
// run of inserts each write the model as of one epoch — the bytes an
// identical model, updated serially, saves after as many inserts. Run it
// under -race too: a Save that read the tree without the update mutex
// races the router's writes.
func TestSaveDuringInsert(t *testing.T) {
	cfg := Config{Method: split.NewGini(), MaxDepth: 5, MinSplit: 100, SampleSize: 1500, Seed: 3, Parallelism: 2}
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 20000, 1)
	chunks := make([]data.Source, 4)
	for i := range chunks {
		chunks[i] = gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 2000, int64(2+i))
	}
	build := func() *Tree {
		t.Helper()
		bt, err := Build(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}
	save := func(bt *Tree) string {
		t.Helper()
		var buf bytes.Buffer
		if err := bt.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	serial := build()
	defer serial.Close()
	epochs := map[string]int{save(serial): 0}
	for i, ch := range chunks {
		if _, err := serial.Insert(ch); err != nil {
			t.Fatal(err)
		}
		epochs[save(serial)] = i + 1
	}

	bt := build()
	defer bt.Close()
	done := make(chan error, 1)
	go func() {
		for _, ch := range chunks {
			if _, err := bt.Insert(ch); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	seen := map[int]bool{}
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		epoch, ok := epochs[save(bt)]
		if !ok {
			t.Fatalf("a save during the inserts wrote no epoch's model (after epochs %v)", seen)
		}
		seen[epoch] = true
	}
	if !seen[len(chunks)] {
		t.Fatalf("the last save saw epochs %v, not the final one", seen)
	}
	t.Logf("saves saw epochs %v", seen)
}
