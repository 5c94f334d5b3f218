// Command boatgen generates synthetic training databases with the
// generator of Agrawal et al. used by the paper's evaluation, writing
// them as binary dataset files (40-byte records in the compact format for
// the 9-attribute schema).
//
// It also writes (and converts existing datasets to) the block-compressed
// columnar format of internal/data: per-block column segments with
// small-integer encodings and CRC32-C checksums, which the training scans
// read through the asynchronous prefetch/decode pipeline.
//
// Usage:
//
//	boatgen -o train.boat -n 2000000 -function 1 -noise 0.05
//	boatgen -o shift.boat -n 500000 -function 1 -shifted
//	boatgen -o inst.boat  -n 500000 -instability
//	boatgen -o train.boatc -n 2000000 -function 1 -columnar
//	boatgen -convert train.boat -o train.boatc
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/obs"
)

func main() {
	var (
		out         = flag.String("o", "", "output dataset file (required)")
		n           = flag.Int64("n", 1_000_000, "number of tuples")
		function    = flag.Int("function", 1, "Agrawal classification function (1-10)")
		noise       = flag.Float64("noise", 0, "label noise probability (0-1)")
		extra       = flag.Int("extra", 0, "extra non-predictive numeric attributes")
		shifted     = flag.Bool("shifted", false, "use the shifted-distribution variant of function 1 (Figure 14)")
		instability = flag.Bool("instability", false, "generate the two-minima instability dataset of Figure 12")
		seed        = flag.Int64("seed", 1, "generator seed")
		wide        = flag.Bool("wide", false, "use the float64 record format instead of the 4-byte compact format")
		columnar    = flag.Bool("columnar", false, "write the block-compressed columnar format instead of a row file")
		blockRows   = flag.Int("blockrows", 0, "columnar: rows per block (0 = default)")
		convert     = flag.String("convert", "", "convert this existing dataset file (either format) to -o instead of generating; -columnar is implied unless the name ends in .boat")
		logJSON     = flag.Bool("logjson", false, "emit structured logs as JSON instead of text")
		logLevel    = flag.String("loglevel", "info", "log level: debug | info | warn | error")
	)
	flag.Parse()
	logger, err := obs.NewLogger(os.Stderr, obs.LogConfig{JSON: *logJSON, Level: *logLevel})
	if err != nil {
		fmt.Fprintf(os.Stderr, "boatgen: %v\n", err)
		os.Exit(1)
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "boatgen: -o is required")
		flag.Usage()
		os.Exit(2)
	}

	var src data.Source
	if *convert != "" {
		in, err := data.Open(*convert)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boatgen: %v\n", err)
			os.Exit(1)
		}
		src = in
		if !strings.HasSuffix(*out, ".boat") {
			*columnar = true
		}
	} else if *instability {
		src = gen.InstabilitySource(*n, *seed)
	} else {
		s, err := gen.NewSource(gen.Config{
			Function:   *function,
			Noise:      *noise,
			ExtraAttrs: *extra,
			Shifted:    *shifted,
		}, *n, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boatgen: %v\n", err)
			os.Exit(1)
		}
		src = s
	}

	if *columnar {
		written, err := data.WriteColFile(*out, src, *blockRows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boatgen: %v\n", err)
			os.Exit(1)
		}
		cs, err := data.OpenColFile(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boatgen: verifying output: %v\n", err)
			os.Exit(1)
		}
		bpt := 0.0
		if written > 0 {
			bpt = float64(cs.SizeBytes()) / float64(written)
		}
		logger.Info("columnar dataset written", "path", *out, "tuples", written,
			"blocks", cs.Blocks(), "block_rows", cs.BlockRows(),
			"payload_bytes", cs.SizeBytes(), "bytes_per_tuple", bpt)
		return
	}
	format := data.FormatCompact
	if *wide {
		format = data.FormatWide
	}
	written, err := data.WriteFile(*out, src, format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "boatgen: %v\n", err)
		os.Exit(1)
	}
	fs, err := data.OpenFile(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "boatgen: verifying output: %v\n", err)
		os.Exit(1)
	}
	logger.Info("dataset written", "path", *out, "tuples", written,
		"payload_bytes", fs.SizeBytes(), "bytes_per_tuple", format.TupleSize(fs.Schema()))
}
