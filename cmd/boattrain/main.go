// Command boattrain grows a decision tree over a binary dataset file with
// BOAT (or, for comparison, RainForest or the in-memory reference), prints
// the tree and the construction cost profile, and can persist the tree.
//
// Observability: -trace writes the build lifecycle as Chrome trace-event
// JSON (load it in chrome://tracing or Perfetto), -metricsjson dumps the
// build metrics registry, and -logjson/-loglevel control the structured
// log stream on stderr.
//
// Usage:
//
//	boattrain -input train.boat
//	boattrain -input train.boat -algo rf-hybrid -threshold 1500000
//	boattrain -input train.boat -method quest -save model.tree
//	boattrain -input train.boat -update chunk.boat
//	boattrain -input train.boat -trace trace.json -metricsjson metrics.json
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"github.com/boatml/boat/internal/core"
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/predict"
	"github.com/boatml/boat/internal/rainforest"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

func main() {
	var (
		input       = flag.String("input", "", "training dataset file (binary .boat, or .csv with -csv)")
		csvMode     = flag.Bool("csv", false, "treat -input as a CSV file (schema inferred; last column = class, override with -classcol)")
		csvHeader   = flag.Bool("header", true, "CSV: first row is a header")
		classCol    = flag.Int("classcol", 0, "CSV: 1-based class column (0 = last)")
		algo        = flag.String("algo", "boat", "algorithm: boat | rf-hybrid | rf-vertical | inmem")
		method      = flag.String("method", "gini", "split selection: gini | entropy | quest")
		maxDepth    = flag.Int("maxdepth", 0, "depth limit (0 = unlimited)")
		minSplit    = flag.Int64("minsplit", 2, "minimum family size to split")
		threshold   = flag.Int64("threshold", 0, "in-memory switch threshold (tuples; 0 = none)")
		stop        = flag.Bool("stop", false, "stop growth at the threshold instead of finishing in memory")
		sample      = flag.Int("sample", 0, "BOAT sample size (0 = auto)")
		seed        = flag.Int64("seed", 1, "sampling seed")
		parallelism = flag.Int("parallelism", 0, "worker goroutines for the parallel build phases (0 = GOMAXPROCS)")
		avcBuffer   = flag.Int64("avcbuffer", 3_000_000, "RainForest AVC buffer entries")
		save        = flag.String("save", "", "write the encoded tree to this file")
		saveModel   = flag.String("savemodel", "", "write the full BOAT model (tree + statistics) to this file atomically (boat only)")
		update      = flag.String("update", "", "after building, insert this chunk file incrementally (boat only)")
		quiet       = flag.Bool("quiet", false, "do not print the tree itself")
		predictFile = flag.String("predict", "", "after building, classify this binary dataset file with the parallel batch predictor and log accuracy + throughput")
		predBench   = flag.Int("predictbench", 0, "rounds of predict benchmarking (tuple vs flat vs chunk vs parallel) over the -predict file, or the training input if none")
		traceOut    = flag.String("trace", "", "write the build lifecycle as Chrome trace-event JSON to this file (boat only)")
		metricsOut  = flag.String("metricsjson", "", `write the build metrics registry as JSON to this file ("-" = stdout; boat only)`)
		listen      = flag.String("listen", "", `diagnostics HTTP server address for /metrics and /debug/pprof during the build ("" disables)`)
		logJSON     = flag.Bool("logjson", false, "emit structured logs as JSON instead of text")
		logLevel    = flag.String("loglevel", "info", "log level: debug | info | warn | error")
	)
	flag.Parse()
	logger, err := obs.NewLogger(os.Stderr, obs.LogConfig{JSON: *logJSON, Level: *logLevel})
	fatal(err)
	if *input == "" {
		fmt.Fprintln(os.Stderr, "boattrain: -input is required")
		flag.Usage()
		os.Exit(2)
	}

	var src data.Source
	if *csvMode {
		ds, err := data.ReadCSVFile(*input, data.CSVOptions{HasHeader: *csvHeader, ClassColumn: *classCol})
		fatal(err)
		logger.Info("csv loaded", "tuples", len(ds.Tuples),
			"attributes", ds.Schema.NumAttrs(), "classes", len(ds.ClassNames))
		src = ds.Source()
	} else {
		fs, err := data.Open(*input)
		fatal(err)
		src = fs
	}
	m, err := methodFor(*method)
	fatal(err)
	grow := inmem.Config{
		Method:          m,
		MaxDepth:        *maxDepth,
		MinSplit:        *minSplit,
		StopThreshold:   *threshold,
		StopAtThreshold: *stop,
	}

	var st iostats.Stats
	var tracer *obs.Tracer
	var metrics *obs.Registry
	if *traceOut != "" {
		tracer = obs.NewTracer(&st)
	}
	if *metricsOut != "" || *listen != "" {
		metrics = obs.NewRegistry()
	}
	// Opt-in diagnostics server (default off for one-shot builds):
	// /metrics, probes and pprof over the build's registry, with the
	// runtime sampler feeding heap/GC/goroutine gauges. Both stay
	// completely dark — no goroutine, no socket — without -listen.
	if *listen != "" {
		sampler := obs.StartSampler(metrics, obs.SamplerConfig{Logger: logger})
		defer sampler.Close()
		diag, err := obs.StartServer(obs.ServerConfig{
			Addr: *listen, Registry: metrics, Logger: logger,
		})
		fatal(err)
		defer diag.Close()
	}

	var tr *tree.Tree
	start := time.Now()
	switch *algo {
	case "boat":
		bt, err := core.Build(src, core.Config{
			Method: m, MaxDepth: *maxDepth, MinSplit: *minSplit,
			StopThreshold: *threshold, StopAtThreshold: *stop,
			SampleSize: *sample, Seed: *seed, Parallelism: *parallelism,
			Stats: &st, Trace: tracer, Metrics: metrics, Logger: logger,
		})
		fatal(err)
		defer bt.Close()
		bs := bt.BuildStats()
		logger.Info("BOAT build finished", "seconds", time.Since(start).Seconds(),
			"sample", bs.SampleSize, "coarse_nodes", bs.CoarseNodes,
			"disagreements", bs.Disagreements, "failed_nodes", bs.FailedNodes,
			"stuck_tuples", bs.StuckTuples, "frontier_rebuilds", bs.FrontierRebuilds)
		if bs.FailedNodes > 0 {
			logger.Info("verification failure breakdown",
				"no_candidate", bs.FailNoCandidate, "better_cat", bs.FailBetterCat,
				"bound", bs.FailBound, "tie", bs.FailTie, "moment", bs.FailMoment)
		}
		if *update != "" {
			chunk, err := data.Open(*update)
			fatal(err)
			ustart := time.Now()
			upd, err := bt.Insert(chunk)
			fatal(err)
			logger.Info("incremental insert finished",
				"seconds", time.Since(ustart).Seconds(), "tuples", upd.TuplesSeen,
				"rebuilt_subtrees", upd.RebuiltSubtrees, "migrated", upd.MigratedTuples,
				"refitted_leaves", upd.RefittedLeaves)
		}
		if *saveModel != "" {
			fatal(bt.SaveFile(*saveModel))
			logger.Info("model saved", "path", *saveModel)
		}
		tr = bt.Tree()
	case "rf-hybrid", "rf-vertical":
		t2, bs, err := rainforest.Build(src, rainforest.Config{
			Grow:             grow,
			AVCBufferEntries: *avcBuffer,
			Vertical:         *algo == "rf-vertical",
			Stats:            &st,
		})
		fatal(err)
		logger.Info("RainForest build finished", "algo", *algo,
			"seconds", time.Since(start).Seconds(), "scans", bs.Scans,
			"levels", bs.Levels, "peak_avc", bs.PeakAVCEntries)
		tr = t2
	case "inmem":
		tuples, err := data.ReadAll(iostats.Tracked(src, &st))
		fatal(err)
		for _, tp := range tuples {
			fatal(src.Schema().CheckDomain(tp))
		}
		tr = inmem.Build(src.Schema(), tuples, grow)
		logger.Info("in-memory build finished", "seconds", time.Since(start).Seconds())
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}

	logger.Info("io totals", "stats", st.Snapshot().String())
	logger.Info("tree summary", "nodes", tr.NumNodes(), "leaves", tr.NumLeaves(), "depth", tr.Depth())
	rate, err := tr.MisclassificationRate(src)
	fatal(err)
	logger.Info("training misclassification rate", "rate", rate)
	if !*quiet {
		fmt.Print(tr)
	}
	if *save != "" {
		raw, err := tree.EncodeTree(tr)
		fatal(err)
		fatal(os.WriteFile(*save, raw, 0o644))
		logger.Info("tree saved", "path", *save, "bytes", len(raw))
	}
	runPredict(logger, tr, src, *predictFile, *predBench, *parallelism, &st, tracer, metrics)
	writeObservability(logger, tracer, *traceOut, metrics, *metricsOut)
}

// runPredict serves the freshly built tree back over a dataset: -predict
// classifies the file with the parallel batch predictor (accuracy against
// the file's labels, throughput), and -predictbench times the four
// classification modes against each other.
func runPredict(logger *slog.Logger, tr *tree.Tree, trainSrc data.Source,
	predictFile string, rounds, parallelism int,
	st *iostats.Stats, tracer *obs.Tracer, metrics *obs.Registry) {
	if predictFile == "" && rounds <= 0 {
		return
	}
	src := trainSrc
	if predictFile != "" {
		fs, err := data.Open(predictFile)
		fatal(err)
		src = fs
	}
	cfg := predict.Config{
		Parallelism: parallelism, Compare: true,
		Stats: st, Trace: tracer, Metrics: metrics,
	}
	if predictFile != "" {
		p, err := predict.New(tr, cfg)
		fatal(err)
		res, err := p.Predict(src)
		fatal(err)
		logger.Info("prediction finished",
			"tuples", res.Tuples, "chunks", res.Chunks,
			"seconds", res.Seconds, "tuples_per_sec", res.TuplesPerSec,
			"accuracy", res.Matrix.Accuracy(),
			"misclassification_rate", res.Matrix.MisclassificationRate())
	}
	if rounds > 0 {
		b, err := predict.NewBench(tr, src, cfg)
		fatal(err)
		var tupleRate float64
		for _, mode := range []predict.Mode{
			predict.ModeTuple, predict.ModeFlat, predict.ModeChunk, predict.ModeParallel,
		} {
			m, err := b.Measure(mode, rounds)
			fatal(err)
			speedup := 0.0
			if mode == predict.ModeTuple {
				tupleRate = m.TuplesPerSec
			} else if tupleRate > 0 {
				speedup = m.TuplesPerSec / tupleRate
			}
			logger.Info("predict bench", "mode", m.Mode, "rounds", m.Rounds,
				"tuples_per_sec", m.TuplesPerSec, "allocs_per_tuple", m.AllocsPerTuple,
				"speedup_vs_tuple", speedup)
		}
	}
}

// writeObservability flushes the trace and metrics dumps requested by
// -trace and -metricsjson.
func writeObservability(logger *slog.Logger, tracer *obs.Tracer, traceOut string, metrics *obs.Registry, metricsOut string) {
	if tracer.Enabled() && traceOut != "" {
		f, err := os.Create(traceOut)
		fatal(err)
		fatal(tracer.WriteChromeTrace(f))
		fatal(f.Close())
		logger.Info("trace written", "path", traceOut)
	}
	if metrics.Enabled() && metricsOut != "" {
		if metricsOut == "-" {
			fatal(metrics.WriteJSON(os.Stdout))
			return
		}
		f, err := os.Create(metricsOut)
		fatal(err)
		fatal(metrics.WriteJSON(f))
		fatal(f.Close())
		logger.Info("metrics written", "path", metricsOut)
	}
}

func methodFor(name string) (split.Method, error) {
	switch name {
	case "gini":
		return split.NewGini(), nil
	case "entropy":
		return split.NewEntropy(), nil
	case "quest":
		return split.NewQuestLike(), nil
	default:
		return nil, fmt.Errorf("unknown method %q (want gini, entropy or quest)", name)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "boattrain: %v\n", err)
		os.Exit(1)
	}
}
