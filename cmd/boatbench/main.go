// Command boatbench regenerates the paper's evaluation (Section 5): every
// figure from 4 to 15 has an experiment that runs BOAT against the
// RainForest baselines (or the incremental-update comparison) on the
// corresponding synthetic workload and prints the measured series. Tree
// identity across all algorithms is verified as part of every run.
//
// Sizes are in the paper's "millions of tuples"; -unit maps one
// paper-million to actual tuples (default 50000, a 20x scale-down that
// runs in minutes on a laptop; -unit 1000000 reproduces the full-scale
// experiment).
//
// Usage:
//
//	boatbench -experiment fig4
//	boatbench -experiment all -unit 50000 -files
//	boatbench -experiment fig12
//	boatbench -benchjson scan.json
//	boatbench -updatejson BENCH_update.json
//	boatbench -experiment fig4 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
	"time"

	"github.com/boatml/boat/internal/core"
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/experiments"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/predict"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

var runners = []struct {
	id    string
	descr string
	run   func(experiments.Config) ([]experiments.Row, error)
}{
	{"fig4", "Overall time vs DB size, Function 1", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunScalability("fig4", 1, c)
	}},
	{"fig5", "Overall time vs DB size, Function 6", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunScalability("fig5", 6, c)
	}},
	{"fig6", "Overall time vs DB size, Function 7", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunScalability("fig6", 7, c)
	}},
	{"fig7", "Time vs noise, Function 1", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunNoise("fig7", 1, c)
	}},
	{"fig8", "Time vs noise, Function 6", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunNoise("fig8", 6, c)
	}},
	{"fig9", "Time vs noise, Function 7", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunNoise("fig9", 7, c)
	}},
	{"fig10", "Time vs extra attributes, Function 1", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunExtraAttrs("fig10", 1, c)
	}},
	{"fig11", "Time vs extra attributes, Function 6", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunExtraAttrs("fig11", 6, c)
	}},
	{"fig13", "Dynamic environment: stable distribution", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunDynamic("fig13", experiments.DynamicStable, c)
	}},
	{"fig14", "Dynamic environment: distribution change", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunDynamic("fig14", experiments.DynamicChange, c)
	}},
	{"fig15", "Dynamic environment: small vs large update chunks", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunDynamic("fig15", experiments.DynamicChunkSize, c)
	}},
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "figure to reproduce: fig4..fig15, or all")
		unit       = flag.Int64("unit", 50_000, "tuples per paper-'million'")
		maxUnits   = flag.Int("maxunits", 10, "largest dataset in paper-millions")
		files      = flag.Bool("files", false, "materialize datasets as binary files and scan from disk")
		dir        = flag.String("dir", "", "scratch directory (default: system temp)")
		seed       = flag.Int64("seed", 1, "experiment seed")
		method     = flag.String("method", "gini", "split selection: gini | entropy | quest")
		para       = flag.Int("parallelism", 0, "worker goroutines for BOAT's parallel phases (0 = GOMAXPROCS, 1 = sequential; trees are identical at every setting)")
		verbose    = flag.Bool("v", true, "log progress")

		faults      = flag.Bool("faults", false, "run the storage fault-injection soak instead of a figure")
		faultBuilds = flag.Int("faultbuilds", 100, "number of fault-injected builds in the soak")
		faultSeed   = flag.Int64("faultseed", 1, "base seed for the injected fault sequence")

		benchJSON   = flag.String("benchjson", "", "run the cleanup-scan micro-benchmark (the columnar chunk scan on the Fig-4/F1 workload) and write the measurement to this JSON file instead of a figure")
		benchTuples = flag.Int64("benchtuples", 200_000, "dataset size for -benchjson")
		benchRounds = flag.Int("benchrounds", 3, "scan passes for -benchjson")

		predictJSON = flag.String("predictjson", "", "run the classification micro-benchmark (per-tuple pointer walk vs chunked kernel vs the predictor on the Fig-4/F1 workload, depth >= 8) and write measurements to this JSON file instead of a figure")

		updateJSON   = flag.String("updatejson", "", "run the streaming-update micro-benchmark (the columnar chunk router on the sliding-window dynamic-environment workload) and write measurements to this JSON file instead of a figure")
		updateRounds = flag.Int("updaterounds", 30, "insert+delete rounds for -updatejson")

		ioJSON      = flag.String("iojson", "", "run the file-backed scan I/O benchmark (row file vs columnar block file) and write measurements to this JSON file instead of a figure")
		ioTuples    = flag.Int64("iotuples", 1_000_000, "dataset size for -iojson")
		ioBlockRows = flag.Int("ioblockrows", 0, "columnar block rows for -iojson (0 = default)")
		ioVerify    = flag.Bool("ioverify", true, "-iojson: also verify trees bit-identical across formats and Parallelism {1,8}")

		metricsJSON = flag.String("metricsjson", "", `write the accumulated BOAT metrics registry as JSON to this file ("-" = stdout)`)
		listen      = flag.String("listen", "", `diagnostics HTTP server address for /metrics and /debug/pprof during the run ("" disables)`)
		logJSON     = flag.Bool("logjson", false, "emit structured logs as JSON instead of text")
		logLevel    = flag.String("loglevel", "info", "log level: debug | info | warn | error")

		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceprofile = flag.String("traceprofile", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, obs.LogConfig{JSON: *logJSON, Level: *logLevel})
	if err != nil {
		fmt.Fprintf(os.Stderr, "boatbench: %v\n", err)
		os.Exit(2)
	}
	stopProfiles, err := startProfiles(*cpuprofile, *traceprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "boatbench: %v\n", err)
		os.Exit(2)
	}
	code := run(mainConfig{
		experiment: *experiment, unit: *unit, maxUnits: *maxUnits,
		files: *files, dir: *dir, seed: *seed, method: *method,
		para: *para, verbose: *verbose, logger: logger,
		faults: *faults, faultBuilds: *faultBuilds, faultSeed: *faultSeed,
		benchJSON: *benchJSON, benchTuples: *benchTuples, benchRounds: *benchRounds,
		predictJSON: *predictJSON,
		updateJSON:  *updateJSON, updateRounds: *updateRounds,
		ioJSON: *ioJSON, ioTuples: *ioTuples, ioBlockRows: *ioBlockRows, ioVerify: *ioVerify,
		metricsJSON: *metricsJSON, listen: *listen,
	})
	stopProfiles()
	if err := writeMemProfile(*memprofile); err != nil {
		fmt.Fprintf(os.Stderr, "boatbench: %v\n", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

// startProfiles begins CPU profiling and execution tracing when the
// corresponding paths are non-empty, returning a function that flushes
// both. Profiles must be flushed on every exit path, which is why main
// funnels all work through run() instead of calling os.Exit directly.
func startProfiles(cpuPath, tracePath string) (stop func(), err error) {
	var stops []func()
	stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return stop, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, fmt.Errorf("cpuprofile: %w", err)
		}
		stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			stop()
			return func() {}, fmt.Errorf("traceprofile: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			stop()
			return func() {}, fmt.Errorf("traceprofile: %w", err)
		}
		stops = append(stops, func() { trace.Stop(); f.Close() })
	}
	return stop, nil
}

// writeMemProfile snapshots the heap into path ("" = disabled).
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

type mainConfig struct {
	experiment string
	unit       int64
	maxUnits   int
	files      bool
	dir        string
	seed       int64
	method     string
	para       int
	verbose    bool
	logger     *slog.Logger

	faults      bool
	faultBuilds int
	faultSeed   int64

	benchJSON   string
	benchTuples int64
	benchRounds int
	predictJSON string

	updateJSON   string
	updateRounds int

	ioJSON      string
	ioTuples    int64
	ioBlockRows int
	ioVerify    bool

	metricsJSON string
	listen      string
}

func run(mc mainConfig) int {
	var m split.Method
	switch mc.method {
	case "gini":
		m = split.NewGini()
	case "entropy":
		m = split.NewEntropy()
	case "quest":
		m = split.NewQuestLike()
	default:
		fmt.Fprintf(os.Stderr, "boatbench: unknown method %q\n", mc.method)
		return 2
	}

	var metrics *obs.Registry
	if mc.metricsJSON != "" || mc.listen != "" {
		metrics = obs.NewRegistry()
	}
	// Opt-in diagnostics server (default off for benchmarks): /metrics,
	// probes and pprof over the run's registry, with the runtime sampler
	// feeding heap/GC/goroutine gauges while the benchmark executes. Both
	// stay completely dark — no goroutine, no socket — without -listen.
	if mc.listen != "" {
		sampler := obs.StartSampler(metrics, obs.SamplerConfig{Logger: mc.logger})
		defer sampler.Close()
		diag, err := obs.StartServer(obs.ServerConfig{
			Addr: mc.listen, Registry: metrics, Logger: mc.logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "boatbench: %v\n", err)
			return 2
		}
		defer diag.Close()
	}

	if mc.benchJSON != "" {
		code := runScanBench(mc, m, metrics)
		if code == 0 {
			code = dumpMetrics(metrics, mc.metricsJSON)
		}
		return code
	}

	if mc.predictJSON != "" {
		code := runPredictBench(mc, m, metrics)
		if code == 0 {
			code = dumpMetrics(metrics, mc.metricsJSON)
		}
		return code
	}

	if mc.updateJSON != "" {
		code := runUpdateBench(mc, m, metrics)
		if code == 0 {
			code = dumpMetrics(metrics, mc.metricsJSON)
		}
		return code
	}

	if mc.ioJSON != "" {
		code := runIOBench(mc, m)
		if code == 0 {
			code = dumpMetrics(metrics, mc.metricsJSON)
		}
		return code
	}

	cfg := experiments.Config{
		Unit: mc.unit, MaxUnits: mc.maxUnits, UseFiles: mc.files,
		Dir: mc.dir, Seed: mc.seed, Method: m, Parallelism: mc.para,
		Metrics: metrics,
	}
	if mc.verbose {
		cfg.Logger = mc.logger
	}
	defer func() { dumpMetrics(metrics, mc.metricsJSON) }()

	if mc.faults {
		fmt.Printf("=== fault soak: %d builds with injected transient storage faults ===\n", mc.faultBuilds)
		res, err := experiments.RunFaultSoak(cfg, mc.faultBuilds, mc.faultSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boatbench: fault soak: %v\n", err)
			return 1
		}
		fmt.Printf("builds: %d | exact: %d | clean errors: %d\n", res.Builds, res.Exact, res.Failed)
		fmt.Printf("faults injected: %d (%d transient)\n", res.InjectedFaults, res.Transient)
		fmt.Printf("recoveries: spill-retries=%d scan-retries=%d spill-rebuilds=%d\n",
			res.SpillRetries, res.ScanRetries, res.SpillRebuilds)
		fmt.Println("every build produced the exact tree or a clean error; no temp files or budget leaked")
		return 0
	}

	want := strings.Split(mc.experiment, ",")
	matches := func(id string) bool {
		for _, w := range want {
			if w == "all" || w == id {
				return true
			}
		}
		return false
	}

	ran := 0
	for _, r := range runners {
		if !matches(r.id) {
			continue
		}
		ran++
		fmt.Printf("\n=== %s: %s ===\n", r.id, r.descr)
		rows, err := r.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boatbench: %s: %v\n", r.id, err)
			return 1
		}
		experiments.FormatRows(os.Stdout, rows)
	}
	if matches("fig12") {
		ran++
		fmt.Printf("\n=== fig12: Instability of impurity-based split selection ===\n")
		res, err := experiments.RunInstability(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boatbench: fig12: %v\n", err)
			return 1
		}
		fmt.Printf("root survived bootstrap intersection: %v\n", res.RootSurvived)
		if res.RootSurvived {
			fmt.Printf("bootstrap split points: %v\n", res.Points)
			fmt.Printf("points near the tied minima: %d near x=19, %d near x=60\n",
				res.NearLow, res.NearHigh)
			fmt.Printf("confidence interval: [%g, %g]\n", res.IntervalLo, res.IntervalHi)
		}
		fmt.Printf("coarse tree nodes: %d (growth stops where bootstrap trees disagree)\n", res.CoarseNodes)
		fmt.Printf("BOAT verification failures recovered from: %d\n", res.Failures)
		fmt.Printf("BOAT tree identical to reference: %v\n", res.BOATExact)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "boatbench: no experiment matches %q\n", mc.experiment)
		return 2
	}
	return 0
}

// dumpMetrics writes the registry as JSON to path ("" = disabled, "-" =
// stdout), returning a process exit code.
func dumpMetrics(metrics *obs.Registry, path string) int {
	if !metrics.Enabled() || path == "" {
		return 0
	}
	if path == "-" {
		if err := metrics.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "boatbench: metricsjson: %v\n", err)
			return 1
		}
		return 0
	}
	f, err := os.Create(path)
	if err == nil {
		err = metrics.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "boatbench: metricsjson: %v\n", err)
		return 1
	}
	return 0
}

// benchProvenance pins down what produced a -benchjson report: the
// machine-independent run configuration, the toolchain, the source
// revision (from the binary's embedded VCS stamp, when built from a git
// checkout with go build) and the UTC date of the run.
type benchProvenance struct {
	Parallelism   int    `json:"parallelism"`
	ScanChunkRows int    `json:"scan_chunk_rows"`
	Method        string `json:"method"`
	Seed          int64  `json:"seed"`
	GoVersion     string `json:"go_version"`
	GitSHA        string `json:"git_sha,omitempty"`
	GitModified   bool   `json:"git_modified,omitempty"`
	Date          string `json:"date"`
}

// newProvenance fills the provenance of a report run now.
func newProvenance(mc mainConfig, m split.Method) benchProvenance {
	sha, modified := gitRevision()
	return benchProvenance{
		Parallelism:   mc.para,
		ScanChunkRows: data.DefaultChunkRows,
		Method:        m.Name(),
		Seed:          mc.seed,
		GoVersion:     runtime.Version(),
		GitSHA:        sha,
		GitModified:   modified,
		Date:          time.Now().UTC().Format(time.RFC3339),
	}
}

// gitRevision extracts the vcs.revision/vcs.modified stamps the Go
// linker embeds when the binary is built inside a git checkout.
func gitRevision() (sha string, modified bool) {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "", false
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	return sha, modified
}

// scanBenchReport is the JSON document -benchjson writes: the measurement
// of the cleanup scan the build runs (the chunk router at weight +1), the
// run's provenance, and the iostats accounting of its passes.
type scanBenchReport struct {
	Workload      string                 `json:"workload"`
	Tuples        int64                  `json:"tuples"`
	Rounds        int                    `json:"rounds"`
	GOMAXPROCS    int                    `json:"gomaxprocs"`
	Config        benchProvenance        `json:"config"`
	Modes         []core.ScanMeasurement `json:"modes"`
	IOStats       iostats.Snapshot       `json:"iostats"`
	ChunkPerTuple float64                `json:"chunk_allocs_per_tuple"`
}

// runScanBench times cleanup-scan passes over the Fig-4/F1 workload,
// prints the throughput with the iostats accounting, and writes the
// measurement as JSON. The generator output is materialized up front so
// the benchmark isolates the scan itself.
func runScanBench(mc mainConfig, m split.Method, metrics *obs.Registry) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "boatbench: benchjson: %v\n", err)
		return 1
	}
	n := mc.benchTuples
	fmt.Printf("=== cleanup-scan benchmark: Fig-4/F1 workload, %d tuples, %d rounds ===\n",
		n, mc.benchRounds)
	gsrc := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, n, mc.seed+41)
	tuples, err := data.ReadAll(gsrc)
	if err != nil {
		return fail(err)
	}
	src := data.NewMemSource(gsrc.Schema(), tuples)

	rep := scanBenchReport{
		Workload: "fig4-f1", Tuples: n, Rounds: mc.benchRounds,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config:     newProvenance(mc, m),
	}
	stats := &iostats.Stats{}
	bench, err := core.NewScanBench(src, core.Config{
		Method: m, MaxDepth: 6, MinSplit: 50, SampleSize: 2000,
		Seed: 7, TempDir: mc.dir, Parallelism: mc.para, Stats: stats,
		Metrics: metrics, Logger: mc.logger,
	})
	if err != nil {
		return fail(err)
	}
	meas, err := bench.Measure(mc.benchRounds)
	bench.Close()
	if err != nil {
		return fail(err)
	}
	rep.Modes = append(rep.Modes, meas)
	rep.IOStats = stats.Snapshot()
	rep.ChunkPerTuple = meas.AllocsPerTuple
	fmt.Printf("%-8s %12.0f tuples/sec  %10.6f allocs/tuple  %10.1f bytes/tuple\n",
		meas.Mode, meas.TuplesPerSec, meas.AllocsPerTuple, meas.BytesPerTuple)
	if mc.verbose {
		fmt.Printf("         iostats: %s\n", rep.IOStats)
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(mc.benchJSON, append(out, '\n'), 0o644); err != nil {
		return fail(err)
	}
	fmt.Printf("wrote %s\n", mc.benchJSON)
	return 0
}

// updateMeasurement is the result of an -updatejson run.
type updateMeasurement struct {
	Mode            string  `json:"mode"`
	Seconds         float64 `json:"seconds"`
	TuplesPerSec    float64 `json:"tuples_per_sec"`
	AllocsPerTuple  float64 `json:"allocs_per_tuple"`
	Chunks          int64   `json:"chunks"`
	RebuiltSubtrees int64   `json:"rebuilt_subtrees"`
	RefittedLeaves  int64   `json:"refitted_leaves"`
	MigratedTuples  int64   `json:"migrated_tuples"`
}

// updateBenchReport is the JSON document -updatejson writes: the
// measurement of the sliding-window workload and the run's provenance.
type updateBenchReport struct {
	Workload    string              `json:"workload"`
	Noise       float64             `json:"noise"`
	BaseTuples  int64               `json:"base_tuples"`
	ChunkTuples int64               `json:"chunk_tuples"`
	Window      int                 `json:"window"`
	Slots       int                 `json:"slots"`
	Rounds      int                 `json:"rounds"`
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	Config      benchProvenance     `json:"config"`
	Modes       []updateMeasurement `json:"modes"`
}

// runUpdateBench times sustained sliding-window maintenance — the
// boatstream workload: every round inserts the newest chunk and deletes
// the expired one, holding the tree's net size constant — through the
// columnar chunk router, and writes the measurement as JSON. The data is
// F1 with 5% label noise, as in the repository benchmark's stream
// workloads, so the fat leaves are impure and every update refits some.
func runUpdateBench(mc mainConfig, m split.Method, metrics *obs.Registry) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "boatbench: updatejson: %v\n", err)
		return 1
	}
	const (
		baseTuples  = 40_000
		chunkTuples = 10_000
		window      = 3
		slots       = 2 * window
		noise       = 0.05
	)
	rounds := mc.updateRounds
	fmt.Printf("=== streaming-update benchmark: sliding window %d x %d tuples over %d base, %d rounds ===\n",
		window, chunkTuples, baseTuples, rounds)
	gcfg := gen.Config{Function: 1, Noise: noise}
	base := gen.MustSource(gcfg, baseTuples, mc.seed)
	chunks := make([]data.Source, slots)
	for i := range chunks {
		chunks[i] = gen.MustSource(gcfg, chunkTuples, mc.seed+int64(10+i))
	}

	rep := updateBenchReport{
		Workload: "sliding-window-f1", Noise: noise, BaseTuples: baseTuples,
		ChunkTuples: chunkTuples, Window: window, Slots: slots,
		Rounds: rounds, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config: newProvenance(mc, m),
	}
	bt, err := core.Build(base, core.Config{
		Method: m, StopThreshold: 4000, StopAtThreshold: true,
		SampleSize: 8000, BootstrapTrees: 5, Seed: mc.seed,
		TempDir: mc.dir, Parallelism: mc.para,
		Metrics: metrics, Logger: mc.logger,
	})
	if err != nil {
		return fail(err)
	}
	defer bt.Close()
	var total core.UpdateStats
	add := func(u core.UpdateStats) {
		total.Chunks += u.Chunks
		total.RebuiltSubtrees += u.RebuiltSubtrees
		total.RefittedLeaves += u.RefittedLeaves
		total.MigratedTuples += u.MigratedTuples
	}
	for i := 0; i < window; i++ {
		if _, err := bt.Insert(chunks[i]); err != nil {
			return fail(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		ins, err := bt.Insert(chunks[(window+r)%slots])
		if err != nil {
			return fail(err)
		}
		del, err := bt.Delete(chunks[r%slots])
		if err != nil {
			return fail(err)
		}
		add(ins)
		add(del)
	}
	seconds := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	streamed := float64(rounds) * 2 * chunkTuples
	meas := updateMeasurement{
		Mode: "chunked", Seconds: seconds,
		Chunks:          total.Chunks,
		RebuiltSubtrees: total.RebuiltSubtrees,
		RefittedLeaves:  total.RefittedLeaves,
		MigratedTuples:  total.MigratedTuples,
	}
	if seconds > 0 {
		meas.TuplesPerSec = streamed / seconds
	}
	if streamed > 0 {
		meas.AllocsPerTuple = float64(after.Mallocs-before.Mallocs) / streamed
	}
	rep.Modes = append(rep.Modes, meas)
	fmt.Printf("%-8s %12.0f tuples/sec  %10.3f allocs/tuple  rebuilt=%d refitted=%d\n",
		meas.Mode, meas.TuplesPerSec, meas.AllocsPerTuple,
		meas.RebuiltSubtrees, meas.RefittedLeaves)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(mc.updateJSON, append(out, '\n'), 0o644); err != nil {
		return fail(err)
	}
	fmt.Printf("wrote %s\n", mc.updateJSON)
	return 0
}

// ioScanMeasurement is one source/configuration's result in an -iojson
// report: the scan measurement plus the I/O accounting that motivates the
// columnar path — logical (decoded tuple) bytes vs bytes physically read —
// and the scan router's whole-chunk descents (scan.blocks_skipped).
type ioScanMeasurement struct {
	core.ScanMeasurement
	Source        string `json:"source"`
	LogicalBytes  int64  `json:"logical_bytes_read"`
	PhysicalBytes int64  `json:"physical_bytes_read"`
	BlocksSkipped int64  `json:"blocks_skipped"`
}

// ioBenchReport is the JSON document -iojson writes: the file-backed
// cleanup-scan throughput of the row format vs the columnar block format,
// file sizes, and the cross-format tree-identity verification.
type ioBenchReport struct {
	Workload              string              `json:"workload"`
	Tuples                int64               `json:"tuples"`
	Rounds                int                 `json:"rounds"`
	Parallelism           int                 `json:"parallelism"`
	BlockRows             int                 `json:"block_rows"`
	GOMAXPROCS            int                 `json:"gomaxprocs"`
	Config                benchProvenance     `json:"config"`
	RowFileBytes          int64               `json:"row_file_bytes"`
	ColFileBytes          int64               `json:"col_file_bytes"`
	Compression           float64             `json:"row_bytes_per_col_byte"`
	Modes                 []ioScanMeasurement `json:"modes"`
	PipelinedSpeedupVsRow float64             `json:"col_pipelined_speedup_vs_row"`
	TreeConfigsVerified   int                 `json:"tree_configs_verified"`
	TreesIdentical        bool                `json:"trees_identical"`
}

// runIOBench measures the file-backed cleanup scan end to end: the same
// F1 workload is materialized once as a row file and once as a columnar
// block file, and the cleanup scan is timed over each, isolating what the
// on-disk format buys. With -ioverify (default) it then builds trees from
// both files at Parallelism {1, 8} and asserts every encoded tree is
// bit-identical.
func runIOBench(mc mainConfig, m split.Method) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "boatbench: iojson: %v\n", err)
		return 1
	}
	n := mc.ioTuples
	para := mc.para
	if para <= 0 {
		para = 8
	}
	rounds := mc.benchRounds
	dir := mc.dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "boatbench-io-")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	fmt.Printf("=== scan I/O benchmark: Fig-4/F1 workload, %d tuples, %d rounds/mode, Parallelism=%d ===\n",
		n, rounds, para)

	rowPath := filepath.Join(dir, "io-train.boat")
	colPath := filepath.Join(dir, "io-train.boatc")
	// The dataset is materialized clustered on age — F1's split attribute —
	// modeling a clustered fact table, where whole chunks descend one side
	// of the root; both files hold the identical tuple sequence, so the
	// comparison (and the tree-identity check) isolates the storage format.
	gsrc := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, n, mc.seed+47)
	tuples, err := data.ReadAll(gsrc)
	if err != nil {
		return fail(err)
	}
	sort.SliceStable(tuples, func(i, j int) bool {
		return tuples[i].Values[gen.AttrAge] < tuples[j].Values[gen.AttrAge]
	})
	if _, err := data.WriteFile(rowPath, data.NewMemSource(gsrc.Schema(), tuples), data.FormatCompact); err != nil {
		return fail(err)
	}
	tuples = nil
	rowFile, err := data.OpenFile(rowPath)
	if err != nil {
		return fail(err)
	}
	if _, err := data.WriteColFile(colPath, rowFile, mc.ioBlockRows); err != nil {
		return fail(err)
	}
	colFile, err := data.OpenColFile(colPath)
	if err != nil {
		return fail(err)
	}
	rowBytes, colBytes := rowFile.SizeBytes(), colFile.SizeBytes()
	fmt.Printf("row file: %d bytes | columnar file: %d bytes (%d blocks x %d rows) | %.2fx smaller\n",
		rowBytes, colBytes, colFile.Blocks(), colFile.BlockRows(), float64(rowBytes)/float64(colBytes))

	rep := ioBenchReport{
		Workload: "fig4-f1", Tuples: n, Rounds: rounds,
		Parallelism: para, BlockRows: colFile.BlockRows(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		RowFileBytes: rowBytes, ColFileBytes: colBytes,
		Compression: float64(rowBytes) / float64(colBytes),
		Config:      newProvenance(mc, m),
	}
	rep.Config.Parallelism = para

	modes := []struct{ name, path string }{
		{"row", rowPath},
		{"col-pipelined", colPath},
	}
	byMode := map[string]ioScanMeasurement{}
	for _, mode := range modes {
		src, err := data.Open(mode.path)
		if err != nil {
			return fail(err)
		}
		stats := &iostats.Stats{}
		reg := obs.NewRegistry()
		bench, err := core.NewScanBench(src, core.Config{
			Method: m, MaxDepth: 6, MinSplit: 50, SampleSize: 2000,
			Seed: 7, TempDir: dir, Parallelism: para, Stats: stats,
			Metrics: reg, Logger: mc.logger,
		})
		if err != nil {
			return fail(err)
		}
		meas, err := bench.Measure(rounds)
		bench.Close()
		if err != nil {
			return fail(err)
		}
		snap := stats.Snapshot()
		im := ioScanMeasurement{
			ScanMeasurement: meas,
			Source:          mode.name,
			LogicalBytes:    snap.BytesRead,
			PhysicalBytes:   snap.PhysBytesRead,
			BlocksSkipped:   reg.Snapshot().Counters["scan.blocks_skipped"],
		}
		rep.Modes = append(rep.Modes, im)
		byMode[mode.name] = im
		fmt.Printf("%-14s %12.0f tuples/sec  phys/logical %.2f  blocks skipped %d\n",
			mode.name, im.TuplesPerSec, float64(im.PhysicalBytes)/float64(max64(im.LogicalBytes, 1)),
			im.BlocksSkipped)
	}
	if row := byMode["row"]; row.TuplesPerSec > 0 {
		rep.PipelinedSpeedupVsRow = byMode["col-pipelined"].TuplesPerSec / row.TuplesPerSec
	}
	fmt.Printf("columnar vs row: %.2fx\n", rep.PipelinedSpeedupVsRow)

	if mc.ioVerify {
		verified, err := verifyIOTrees(rowPath, colPath, m, n, dir, mc.logger)
		if err != nil {
			return fail(err)
		}
		rep.TreeConfigsVerified = verified
		rep.TreesIdentical = true
		fmt.Printf("tree identity: %d format/parallelism configurations bit-identical\n", verified)
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(mc.ioJSON, append(out, '\n'), 0o644); err != nil {
		return fail(err)
	}
	fmt.Printf("wrote %s\n", mc.ioJSON)
	return 0
}

// verifyIOTrees builds trees over the row file and the columnar file at
// Parallelism {1, 8} and returns the number of configurations checked,
// erroring unless every encoded tree is byte-identical to the row-format
// Parallelism=1 baseline.
func verifyIOTrees(rowPath, colPath string, m split.Method, n int64, dir string, logger *slog.Logger) (int, error) {
	build := func(path string, para int) ([]byte, error) {
		src, err := data.Open(path)
		if err != nil {
			return nil, err
		}
		bt, err := core.Build(src, core.Config{
			Method: m, MaxDepth: 8, MinSplit: 50, SampleSize: 2000,
			StopThreshold: n / 10, StopAtThreshold: true,
			Seed: 7, TempDir: dir, Parallelism: para, Logger: logger,
		})
		if err != nil {
			return nil, err
		}
		defer bt.Close()
		return tree.EncodeTree(bt.Tree())
	}
	want, err := build(rowPath, 1)
	if err != nil {
		return 0, err
	}
	checked := 1
	for _, c := range []struct {
		path string
		para int
	}{{rowPath, 8}, {colPath, 1}, {colPath, 8}} {
		got, err := build(c.path, c.para)
		if err != nil {
			return checked, err
		}
		if !bytes.Equal(got, want) {
			return checked, fmt.Errorf("tree from %s differs at Parallelism=%d", filepath.Base(c.path), c.para)
		}
		checked++
	}
	return checked, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// predictBenchReport is the JSON document -predictjson writes: one
// measurement per classification mode, the tree's shape, the headline
// speedups over the per-tuple pointer baseline, the determinism
// verification, and the run's provenance.
type predictBenchReport struct {
	Workload               string                `json:"workload"`
	Tuples                 int64                 `json:"tuples"`
	Rounds                 int                   `json:"rounds"`
	TreeDepth              int                   `json:"tree_depth"`
	TreeNodes              int                   `json:"tree_nodes"`
	TreeLeaves             int                   `json:"tree_leaves"`
	GOMAXPROCS             int                   `json:"gomaxprocs"`
	Config                 benchProvenance       `json:"config"`
	Modes                  []predict.Measurement `json:"modes"`
	ChunkSpeedupVsTuple    float64               `json:"chunk_speedup_vs_tuple"`
	ParallelSpeedupVsTuple float64               `json:"parallel_speedup_vs_tuple"`
	ChunkAllocsPerTuple    float64               `json:"chunk_allocs_per_tuple"`
	DeterminismConfigs     int                   `json:"determinism_configs_verified"`
}

// predictBenchChunkRows is the chunk row capacity the predict benchmark
// serves with. Larger chunks keep the batch router's per-node batches
// above the SIMD/descent cutoffs for more levels; 16K rows measured best
// on the Fig-4 tree depths this benchmark grows (a 16K-row column is
// 128KiB — still L2-resident — where 64K-row columns spill to L3).
const predictBenchChunkRows = 16384

// runPredictBench times full classification passes per mode over a tree
// grown on the Fig-4/F1 workload. The tree is grown deep (MaxDepth 12,
// MinSplit 4) so the per-tuple baseline pays a realistic number of levels
// per descent; the report records the actual depth reached. Before any
// timing, every (parallelism, chunk-rows) acceptance configuration is
// verified bit-identical to the pointer baseline.
func runPredictBench(mc mainConfig, m split.Method, metrics *obs.Registry) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "boatbench: predictjson: %v\n", err)
		return 1
	}
	n := mc.benchTuples
	fmt.Printf("=== classification benchmark: Fig-4/F1 workload, %d tuples, %d rounds/mode ===\n",
		n, mc.benchRounds)
	gsrc := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, n, mc.seed+43)
	tuples, err := data.ReadAll(gsrc)
	if err != nil {
		return fail(err)
	}
	src := data.NewMemSource(gsrc.Schema(), tuples)
	tr := inmem.Build(gsrc.Schema(), tuples, inmem.Config{
		Method: m, MaxDepth: 12, MinSplit: 4,
	})
	fmt.Printf("tree: %d nodes, %d leaves, depth %d\n", tr.NumNodes(), tr.NumLeaves(), tr.Depth())

	stats := &iostats.Stats{}
	bench, err := predict.NewBench(tr, src, predict.Config{
		Parallelism: mc.para, ChunkRows: predictBenchChunkRows,
		Stats: stats, Metrics: metrics,
	})
	if err != nil {
		return fail(err)
	}
	checked, err := bench.VerifyDeterminism()
	if err != nil {
		return fail(err)
	}
	fmt.Printf("determinism: %d parallelism/chunk-size configurations bit-identical to the pointer baseline\n", checked)

	rep := predictBenchReport{
		Workload: "fig4-f1", Tuples: n, Rounds: mc.benchRounds,
		TreeDepth: tr.Depth(), TreeNodes: tr.NumNodes(), TreeLeaves: tr.NumLeaves(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		DeterminismConfigs: checked,
		Config:             newProvenance(mc, m),
	}
	rep.Config.ScanChunkRows = predictBenchChunkRows
	byMode := map[predict.Mode]predict.Measurement{}
	for _, mode := range []predict.Mode{
		predict.ModeTuple, predict.ModeChunk, predict.ModeParallel,
	} {
		meas, err := bench.Measure(mode, mc.benchRounds)
		if err != nil {
			return fail(err)
		}
		rep.Modes = append(rep.Modes, meas)
		byMode[mode] = meas
		fmt.Printf("%-9s %12.0f tuples/sec  %10.6f allocs/tuple  %10.1f bytes/tuple\n",
			meas.Mode, meas.TuplesPerSec, meas.AllocsPerTuple, meas.BytesPerTuple)
	}
	base := byMode[predict.ModeTuple].TuplesPerSec
	if base > 0 {
		rep.ChunkSpeedupVsTuple = byMode[predict.ModeChunk].TuplesPerSec / base
		rep.ParallelSpeedupVsTuple = byMode[predict.ModeParallel].TuplesPerSec / base
	}
	rep.ChunkAllocsPerTuple = byMode[predict.ModeChunk].AllocsPerTuple
	fmt.Printf("chunk vs tuple: %.2fx tuples/sec | parallel vs tuple: %.2fx\n",
		rep.ChunkSpeedupVsTuple, rep.ParallelSpeedupVsTuple)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(mc.predictJSON, append(out, '\n'), 0o644); err != nil {
		return fail(err)
	}
	fmt.Printf("wrote %s\n", mc.predictJSON)
	return 0
}
