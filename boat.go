// Package boat is a production-quality Go implementation of BOAT — the
// Bootstrapped Optimistic Algorithm for Tree construction — from
// "BOAT—Optimistic Decision Tree Construction", Gehrke, Ganti,
// Ramakrishnan and Loh, SIGMOD 1999.
//
// BOAT builds the exact same binary decision tree a traditional greedy
// top-down algorithm would build over the full training database, but in
// only two sequential scans (one to draw an in-memory sample, one cleanup
// scan), instead of at least one scan per tree level. A bootstrapped
// sampling phase derives a coarse splitting criterion per node — the
// splitting attribute plus a confidence interval for the split point (or
// the exact splitting subset for categorical attributes) — and the cleanup
// scan gathers exactly the information needed to refine the coarse
// criteria into the final ones and to verify, via a concave-impurity
// lower bound on stamp points, that no better split exists outside them;
// any detected discrepancy triggers a local rebuild, preserving the
// exactness guarantee.
//
// Beyond fast construction, a grown Model supports exact incremental
// maintenance: Insert and Delete stream a chunk down the tree once and are
// guaranteed to leave the model identical to a from-scratch rebuild on the
// modified training database.
//
// # Quick start
//
//	schema, _ := boat.NewSchema([]boat.Attribute{
//		{Name: "age", Kind: boat.Numeric},
//		{Name: "color", Kind: boat.Categorical, Cardinality: 3},
//	}, 2)
//	src := boat.NewMemSource(schema, tuples)
//	model, err := boat.Grow(src, boat.Options{Method: boat.Gini()})
//	if err != nil { ... }
//	defer model.Close()
//	label := model.Tree().Classify(tuple)
//
// The subpackages under internal implement the substrates: the data layer
// (binary tuple files, sampling, spill buffers), split selection
// (impurity-based and QUEST-like methods over AVC-sets), the in-memory
// reference builder, the bootstrapped sampling phase, adaptive
// discretization with stamp-point lower bounds, the BOAT core, and the
// RainForest baselines used by the paper's evaluation.
package boat

import (
	"io"
	"log/slog"
	"math/rand"

	"github.com/boatml/boat/internal/core"
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/eval"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/predict"
	"github.com/boatml/boat/internal/prune"
	"github.com/boatml/boat/internal/rainforest"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
	"github.com/boatml/boat/internal/warehouse"
)

// Data-model types.
type (
	// Schema describes a training database: predictor attributes plus the
	// number of class labels.
	Schema = data.Schema
	// Attribute is one predictor attribute (numeric or categorical).
	Attribute = data.Attribute
	// Kind distinguishes numeric from categorical attributes.
	Kind = data.Kind
	// Tuple is one training record.
	Tuple = data.Tuple
	// Source is a scannable training database; scans may be repeated.
	Source = data.Source
	// Scanner is one sequential pass over a Source in row batches.
	Scanner = data.Scanner
	// Chunk is a columnar batch of tuples: the unit every Source scans in.
	Chunk = data.Chunk
	// ChunkScanner is one sequential pass over a Source in chunks.
	ChunkScanner = data.ChunkScanner
	// Format selects the on-disk tuple encoding.
	Format = data.Format
)

// Attribute kinds and file formats.
const (
	Numeric     = data.Numeric
	Categorical = data.Categorical
	// FormatCompact is the paper's 4-bytes-per-field record layout
	// (40 bytes per tuple for the 9-attribute synthetic schema).
	FormatCompact = data.FormatCompact
	// FormatWide stores values as float64.
	FormatWide = data.FormatWide
)

// NewSchema validates and constructs a schema.
func NewSchema(attrs []Attribute, classCount int) (*Schema, error) {
	return data.NewSchema(attrs, classCount)
}

// ScanRows begins a row scan of src over its chunked scan. A Source
// implemented outside this module can implement Scan with it, as every
// built-in source does.
func ScanRows(src Source) (Scanner, error) { return data.ScanRows(src) }

// NewMemSource wraps an in-memory tuple slice as a Source.
func NewMemSource(schema *Schema, tuples []Tuple) Source {
	return data.NewMemSource(schema, tuples)
}

// OpenFile opens a binary dataset file written by WriteFile or the boatgen
// tool.
func OpenFile(path string) (*data.FileSource, error) { return data.OpenFile(path) }

// Open opens a dataset file in either on-disk format — the row formats
// written by WriteFile or the block-compressed columnar format written by
// WriteColumnarFile — sniffing the magic to pick the reader. Every scan
// of a columnar source reads the whole file behind a prefetch/decode
// pipeline; no option selects another reader.
func Open(path string) (Source, error) { return data.Open(path) }

// WriteColumnarFile materializes a Source into a block-compressed columnar
// dataset file (per-block column segments, small-int encodings and CRC-32C
// checksums). blockRows 0 uses the default block size.
func WriteColumnarFile(path string, src Source, blockRows int) (int64, error) {
	return data.WriteColFile(path, src, blockRows)
}

// CSV import with schema inference.
type (
	// CSVOptions controls CSV parsing (header, class column, separator).
	CSVOptions = data.CSVOptions
	// CSVDataset is a parsed CSV: schema, tuples and the dictionaries
	// mapping categorical codes and class labels back to strings.
	CSVDataset = data.CSVDataset
)

// ReadCSV parses CSV content, inferring numeric vs categorical columns.
func ReadCSV(r io.Reader, opts CSVOptions) (*CSVDataset, error) { return data.ReadCSV(r, opts) }

// ReadCSVFile parses a CSV file from disk.
func ReadCSVFile(path string, opts CSVOptions) (*CSVDataset, error) {
	return data.ReadCSVFile(path, opts)
}

// WriteFile materializes a Source into a binary dataset file.
func WriteFile(path string, src Source, format Format) (int64, error) {
	return data.WriteFile(path, src, format)
}

// Split selection.
type (
	// Method is a split selection method CL.
	Method = split.Method
	// Split is a splitting criterion (attribute plus predicate).
	Split = split.Split
)

// Gini returns the gini-index (CART-style) split selection method.
func Gini() Method { return split.NewGini() }

// Entropy returns the entropy (C4.5-style) split selection method.
func Entropy() Method { return split.NewEntropy() }

// QuestLike returns the non-impurity-based QUEST-style method referenced
// by Section 5 of the paper: statistically stable attribute selection
// (ANOVA F / chi-squared) with class-mean midpoint split points, verified
// in BOAT by exact recomputation from streaming sufficient statistics.
func QuestLike() Method { return split.NewQuestLike() }

// Trees and models.
type (
	// DecisionTree is an immutable decision tree classifier.
	DecisionTree = tree.Tree
	// Node is one node of a DecisionTree.
	Node = tree.Node
	// Model is a stateful BOAT tree supporting exact incremental Insert
	// and Delete. Materialize the classifier with Model.Tree().
	Model = core.Tree
	// Options configures Grow. The zero value plus a Method is valid:
	// sample sizes, bootstrap parameters and thresholds default to the
	// paper's settings (scaled to the dataset). Options.Parallelism sets
	// the workers of the one pool each Grow, Insert and Delete runs on,
	// which its bootstrap trees, chunk-router descents and leaf
	// completion (in-memory fits and recursive invocations alike) share;
	// the columnar decode pipeline keeps its own workers.
	Options = core.Config
	// GrowStats reports what happened during Grow.
	GrowStats = core.BuildStats
	// UpdateStats reports what happened during Insert/Delete.
	UpdateStats = core.UpdateStats
)

// Inference path (see DESIGN.md §13): a compiled struct-of-arrays tree
// layout plus a parallel batch predictor over columnar chunk streams.
type (
	// FlatDecisionTree is the immutable breadth-first struct-of-arrays
	// compilation of a DecisionTree, built for high-throughput serving;
	// its predictions are bit-identical to DecisionTree.Classify.
	FlatDecisionTree = tree.FlatTree
	// Predictor shards columnar chunk streams across a worker pool and
	// classifies them through a FlatDecisionTree.
	Predictor = predict.Predictor
	// PredictorOptions configures NewPredictor; the zero value is valid.
	PredictorOptions = predict.Config
	// Prediction is one Predictor.Predict call's output: per-tuple
	// labels in source order, throughput, and (when requested) a
	// confusion matrix against the source's labels.
	Prediction = predict.Result
	// ClassifyScratch is the reusable per-goroutine scratch of
	// FlatDecisionTree.ClassifyChunkScratch.
	ClassifyScratch = tree.ClassifyScratch
)

// NewClassifyScratch returns an empty chunk-classification scratch for
// FlatDecisionTree.ClassifyChunkScratch.
func NewClassifyScratch() *ClassifyScratch { return tree.NewClassifyScratch() }

// CompileTree flattens a decision tree into the serving layout.
func CompileTree(t *DecisionTree) (*FlatDecisionTree, error) { return tree.Compile(t) }

// NewPredictor compiles the tree and returns a parallel batch predictor
// over it. Predictions are bit-identical across every Parallelism and
// ChunkRows setting.
func NewPredictor(t *DecisionTree, opt PredictorOptions) (*Predictor, error) {
	return predict.New(t, opt)
}

// Storage-resilience types (see DESIGN.md §10). Options.Budget shares one
// spill budget across models; Options.FS swaps the filesystem the spill
// and persistence paths write through; Options.SpillRetry bounds the
// retry-with-backoff applied to transient storage errors.
type (
	// MemBudget is a sharable bound on in-memory buffered tuples;
	// overflow spills to temp files.
	MemBudget = data.MemBudget
	// FS is the filesystem abstraction used for spill and model files.
	FS = data.FS
	// RetryPolicy bounds retries of transient storage errors.
	RetryPolicy = data.RetryPolicy
	// SpillError wraps a storage failure on the spill/persistence path;
	// test with IsSpillError.
	SpillError = data.SpillError
)

// NewMemBudget creates a budget admitting limit buffered tuples (0 =
// unlimited, negative = spill everything).
func NewMemBudget(limit int64) *MemBudget { return data.NewMemBudget(limit) }

// IsSpillError reports whether err came from the spill/persistence path
// (as opposed to a bug or a data error).
func IsSpillError(err error) bool { return data.IsSpillError(err) }

// ErrBrokenModel is wrapped by every Insert, Delete, Save and SaveFile of
// a Model whose earlier update failed after its chunk reached the tree
// (a storage fault, or a bad tuple past the first chunk), together with
// that first failure. Ready reports it; Snapshot keeps serving the last
// published epoch. Grow or load the model again to recover.
var ErrBrokenModel = core.ErrBrokenModel

// LiveTempFiles lists the spill/model temp files currently live in this
// process — useful for asserting zero leaks after Close.
func LiveTempFiles() []string { return data.LiveTempFiles() }

// Grow builds a BOAT model over the training database in two scans.
func Grow(src Source, opt Options) (*Model, error) { return core.Build(src, opt) }

// LoadModel restores a model saved with Model.Save. opt must carry the
// same Method and growth options the model was built with (verified via a
// stored fingerprint); resource options (TempDir, MemBudgetTuples, Stats)
// may differ. The restored model resumes exact incremental maintenance.
func LoadModel(r io.Reader, schema *Schema, opt Options) (*Model, error) {
	return core.Load(r, schema, opt)
}

// GrowInMemory runs the classical greedy top-down algorithm (Figure 1 of
// the paper) on an in-memory family — the reference BOAT is guaranteed to
// agree with. The tuple slice is left as it is. Every tuple must lie in
// the schema's domain (Schema.CheckDomain): categorical codes are whole
// numbers in [0, Cardinality) and classes lie in [0, ClassCount).
func GrowInMemory(schema *Schema, tuples []Tuple, opt InMemoryOptions) *DecisionTree {
	return inmem.Build(schema, tuples, opt)
}

// InMemoryOptions are the growth rules of the reference algorithm.
type InMemoryOptions = inmem.Config

// RainForest baselines (used by the paper's evaluation).
type (
	// RainForestOptions configures the RF-Hybrid / RF-Vertical baselines.
	RainForestOptions = rainforest.Config
	// RainForestStats reports a baseline build's cost profile.
	RainForestStats = rainforest.BuildStats
)

// GrowRainForest builds the identical tree with the RainForest
// level-per-scan algorithms (RF-Hybrid, or RF-Vertical when
// opt.Vertical is set).
func GrowRainForest(src Source, opt RainForestOptions) (*DecisionTree, RainForestStats, error) {
	return rainforest.Build(src, opt)
}

// I/O accounting.
type (
	// IOStats accumulates scan/tuple/byte counters; pass one in Options
	// (or RainForestOptions) to measure an algorithm's I/O cost.
	IOStats = iostats.Stats
	// IOSnapshot is an immutable copy of the counters.
	IOSnapshot = iostats.Snapshot
)

// Observability (see DESIGN.md §12). Options.Trace records the build
// lifecycle as a span tree, Options.Metrics collects build counters, and
// Options.Logger receives structured log records. All three are optional;
// when nil every instrumentation point is a no-op.
type (
	// Tracer records builds and updates as hierarchical spans with
	// wall-clock and I/O-delta accounting; export with WriteChromeTrace.
	Tracer = obs.Tracer
	// Span is one traced phase of a build.
	Span = obs.Span
	// MetricsRegistry holds named counters, gauges and histograms updated
	// during builds; export with WriteJSON, WriteProm (Prometheus text
	// exposition) or Publish (expvar).
	MetricsRegistry = obs.Registry
	// LogConfig configures NewLogger (text or JSON, leveled).
	LogConfig = obs.LogConfig
	// LatencyHistogram is a sharded, lock-free latency distribution with
	// quantile estimation; Grow/Insert/Delete and the Predictor record
	// into registry-owned instances (update.latency, predict.latency).
	LatencyHistogram = obs.LatencyHistogram
)

// Live telemetry (see DESIGN.md §16): an embeddable diagnostics HTTP
// server over a MetricsRegistry, plus a background sampler keeping
// runtime gauges and windowed throughput rates fresh.
type (
	// DiagServer serves /metrics (Prometheus text exposition), /healthz,
	// /readyz, /debug/vars and /debug/pprof from a background goroutine.
	DiagServer = obs.Server
	// DiagServerOptions configures StartDiagServer; an empty Addr
	// disables the server entirely (no goroutine, no socket).
	DiagServerOptions = obs.ServerConfig
	// RuntimeSampler periodically samples Go runtime statistics
	// (heap, GC, goroutines) into registry gauges and computes windowed
	// per-second rates over selected counters.
	RuntimeSampler = obs.Sampler
	// RuntimeSamplerOptions configures StartRuntimeSampler.
	RuntimeSamplerOptions = obs.SamplerConfig
)

// StartDiagServer starts the diagnostics HTTP server. Wire a maintained
// Model's readiness with opt.Ready = model.Ready. Returns (nil, nil)
// when opt.Addr is empty; Close is safe on the nil server.
func StartDiagServer(opt DiagServerOptions) (*DiagServer, error) { return obs.StartServer(opt) }

// StartRuntimeSampler starts the background runtime/rate sampler over
// reg. Returns nil (a valid no-op handle) when reg is nil.
func StartRuntimeSampler(reg *MetricsRegistry, opt RuntimeSamplerOptions) *RuntimeSampler {
	return obs.StartSampler(reg, opt)
}

// NewTracer creates a build tracer. Pass the same stats the build uses
// (Options.Stats) so spans report I/O deltas; nil disables I/O deltas.
func NewTracer(stats *IOStats) *Tracer { return obs.NewTracer(stats) }

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewLogger builds the structured logger the commands use (text or JSON
// on w, filtered by cfg.Level); pass it as Options.Logger.
func NewLogger(w io.Writer, cfg LogConfig) (*slog.Logger, error) { return obs.NewLogger(w, cfg) }

// Synthetic workloads (the Agrawal et al. generator of the evaluation).
type (
	// SyntheticConfig selects one of the ten Agrawal classification
	// functions plus noise/extra-attribute options.
	SyntheticConfig = gen.Config
)

// Synthetic returns a deterministic, re-scannable generated training
// database of n tuples. See gen.Config for the workload knobs.
func Synthetic(cfg SyntheticConfig, n, seed int64) (Source, error) {
	return gen.NewSource(cfg, n, seed)
}

// SyntheticSchema returns the generator schema (9 predictor attributes
// plus any extra random ones).
func SyntheticSchema(extraAttrs int) *Schema { return gen.Schema(extraAttrs) }

// SyntheticInstability returns the crafted two-tied-minima dataset of the
// paper's Figure 12, which makes impurity-based split selection unstable
// under resampling.
func SyntheticInstability(n, seed int64) Source { return gen.InstabilitySource(n, seed) }

// Pruning (the growth phase's orthogonal companion; see internal/prune).
type (
	// MDLPruneOptions tunes MDL pruning code lengths.
	MDLPruneOptions = prune.MDLOptions
)

// PruneMDL returns a copy of the tree pruned under a two-part
// minimum-description-length criterion (the standard choice for large
// datasets per the paper's Section 2.1).
func PruneMDL(t *DecisionTree, opt MDLPruneOptions) (*DecisionTree, error) {
	return prune.MDL(t, opt)
}

// PruneReducedError returns a copy of the tree pruned bottom-up against a
// validation set.
func PruneReducedError(t *DecisionTree, validation Source) (*DecisionTree, error) {
	return prune.ReducedError(t, validation)
}

// Evaluation utilities.
type (
	// ConfusionMatrix counts predictions by (actual, predicted) class.
	ConfusionMatrix = eval.ConfusionMatrix
	// FoldResult is one cross-validation fold's outcome.
	FoldResult = eval.FoldResult
	// TreeBuilder grows a tree over a training database (used by
	// CrossValidate).
	TreeBuilder = eval.Builder
)

// Evaluate fills a confusion matrix with the tree's predictions over src.
func Evaluate(t *DecisionTree, src Source) (*ConfusionMatrix, error) {
	return eval.Evaluate(t, src)
}

// CrossValidate runs k-fold cross-validation with the supplied builder.
func CrossValidate(schema *Schema, tuples []Tuple, k int, rng *rand.Rand, build TreeBuilder) ([]FoldResult, error) {
	return eval.CrossValidate(schema, tuples, k, rng, build)
}

// Star-join warehouse (the paper's "mine from any star-join query without
// materializing the training set" scenario; see internal/warehouse).
type StarWarehouse = warehouse.Star

// NewStarWarehouse builds the demo star schema's dimension tables.
func NewStarWarehouse(nCustomers, nProducts int, seed int64) (*StarWarehouse, error) {
	return warehouse.NewStar(nCustomers, nProducts, seed)
}
