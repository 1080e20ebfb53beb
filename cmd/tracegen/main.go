// Command tracegen materializes synthetic workload traces in the text or
// binary format of internal/trace, optionally filtering raw accesses
// through the 1 MB LLC model first.
//
// Usage:
//
//	tracegen -bench gcc -instructions 1000000 -o gcc.trace [-format bin]
//	         [-scale 1] [-seed 1] [-summary]
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		bench    = flag.String("bench", "gcc", "benchmark name")
		instrs   = flag.Int64("instructions", 1_000_000, "instruction budget")
		out      = flag.String("o", "", "output file (default stdout)")
		format   = flag.String("format", "text", "text | bin")
		scale    = flag.Int("scale", 1, "profile scale divisor")
		seed     = flag.Int64("seed", 1, "generator seed")
		summary  = flag.Bool("summary", false, "print trace statistics to stderr")
		llcBytes = flag.Int("cache", 0, "filter the stream through an LLC of this size (bytes, 0 = off)")
		gz       = flag.Bool("gz", false, "gzip-compress the output")
	)
	flag.Parse()
	switch {
	case *instrs < 1:
		return fmt.Errorf("-instructions %d, want at least 1", *instrs)
	case *scale < 1:
		return fmt.Errorf("-scale %d, want at least 1", *scale)
	case *llcBytes < 0:
		return fmt.Errorf("-cache %d, want 0 (off) or a size in bytes", *llcBytes)
	}

	prof, err := workload.ByName(*bench)
	if err != nil {
		return err
	}
	if *scale > 1 {
		prof = prof.Scaled(*scale)
	}
	cfg := dram.DefaultConfig()
	gen, err := workload.NewGenerator(prof, cfg.TotalLines(), *seed)
	if err != nil {
		return err
	}
	var src trace.Source = workload.NewBounded(gen, *instrs)
	if *llcBytes > 0 {
		llc, err := cache.New(*llcBytes, cfg.LineBytes, 8)
		if err != nil {
			return fmt.Errorf("build cache: %w", err)
		}
		src = trace.NewCacheFilter(src, llc)
	}

	var w *os.File = os.Stdout
	if *out != "" {
		w, err = os.Create(*out)
		if err != nil {
			return fmt.Errorf("create output: %w", err)
		}
		defer func() {
			if cerr := w.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "tracegen: close:", cerr)
			}
		}()
	}

	if *summary {
		// Materialize so the stream can be both summarized and written.
		var recs []trace.Record
		for {
			r, ok := src.Next()
			if !ok {
				break
			}
			recs = append(recs, r)
		}
		s := trace.Summarize(trace.NewSliceSource(recs))
		fmt.Fprintf(os.Stderr, "records=%d reads=%d writes=%d MPKI=%.2f footprint=%.1fMB\n",
			s.Records, s.Reads, s.Writes, s.MPKI(),
			float64(s.FootprintBytes(cfg.LineBytes))/(1<<20))
		src = trace.NewSliceSource(recs)
	}

	var sink io.Writer = w
	if *gz {
		zw := gzip.NewWriter(w)
		defer func() {
			if cerr := zw.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "tracegen: close gzip:", cerr)
			}
		}()
		sink = zw
	}
	switch *format {
	case "text":
		return trace.WriteText(sink, src)
	case "bin":
		return trace.WriteBinary(sink, src)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}
