// Command qtranstrace generates, inspects, imports, and replays query
// traces in the repository's binary format, decoupling workload
// generation from measurement (the paper's artifact ships its realistic
// datasets as files the same way).
//
// Subcommands:
//
//	qtranstrace gen -dataset taxi -queries 100000 -u 0.25 -out taxi.qtr
//	qtranstrace info -in taxi.qtr
//	qtranstrace import -csv trips.csv -loncol 5 -latcol 6 -out taxi.qtr
//	qtranstrace replay -in taxi.qtr -mode inter -batch 20000
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/palm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "qtranstrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: qtranstrace <gen|info|import|replay> [flags]")
	}
	switch args[0] {
	case "gen":
		return genCmd(args[1:])
	case "info":
		return infoCmd(args[1:])
	case "import":
		return importCmd(args[1:])
	case "replay":
		return replayCmd(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func genCmd(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	var (
		dataset = fs.String("dataset", "taxi", "Table I dataset name")
		scale   = fs.Float64("scale", 0.01, "dataset scale for the key space")
		queries = fs.Int("queries", 100_000, "queries to generate")
		u       = fs.Float64("u", 0.25, "update ratio")
		seed    = fs.Int64("seed", 42, "random seed")
		out     = fs.String("out", "", "output file (required)")
		rush    = fs.Bool("rush", false, "wrap the generator with rush-hour temporal skew")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	spec, err := workload.SpecByName(*dataset, *scale)
	if err != nil {
		return err
	}
	var gen workload.Generator = spec.Build()
	if *rush {
		gen = workload.NewTimeVarying(gen)
	}
	r := rand.New(rand.NewSource(*seed))
	qs := workload.Batch(gen, r, *queries, *u)

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Write(f, qs); err != nil {
		return err
	}
	fmt.Printf("wrote %d queries (%s, U-%.2f) to %s\n", len(qs), gen.Name(), *u, *out)
	return f.Close()
}

func infoCmd(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	in := fs.String("in", "", "trace file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("info: -in is required")
	}
	qs, err := readTrace(*in)
	if err != nil {
		return err
	}
	s, i, d := keys.CountOps(qs)
	distinct := map[keys.Key]struct{}{}
	for _, q := range qs {
		distinct[q.Key] = struct{}{}
	}
	fmt.Printf("queries: %d\nsearches: %d\ninserts: %d\ndeletes: %d\ndistinct keys: %d\nredundancy: %.1f%%\n",
		len(qs), s, i, d, len(distinct), 100*(1-float64(len(distinct))/float64(max(1, len(qs)))))
	return nil
}

func importCmd(args []string) error {
	fs := flag.NewFlagSet("import", flag.ContinueOnError)
	var (
		csvPath = fs.String("csv", "", "CSV file with longitude/latitude columns (required)")
		lonCol  = fs.Int("loncol", 5, "zero-based longitude column")
		latCol  = fs.Int("latcol", 6, "zero-based latitude column")
		out     = fs.String("out", "", "output trace file (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *csvPath == "" || *out == "" {
		return fmt.Errorf("import: -csv and -out are required")
	}
	in, err := os.Open(*csvPath)
	if err != nil {
		return err
	}
	defer in.Close()
	qs, skipped, err := trace.ImportCSV(in, trace.NYCGrid(), *lonCol, *latCol)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Write(f, qs); err != nil {
		return err
	}
	fmt.Printf("imported %d points (%d rows skipped) to %s\n", len(qs), skipped, *out)
	return f.Close()
}

func replayCmd(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "trace file (required)")
		modeStr = fs.String("mode", "inter", "engine mode: org, intra, inter")
		batch   = fs.Int("batch", 20_000, "batch size")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "BSP workers")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("replay: -in is required")
	}
	mode, ok := map[string]core.Mode{
		"org": core.Original, "intra": core.Intra,
		"inter": core.IntraInter,
	}[*modeStr]
	if !ok {
		return fmt.Errorf("replay: unknown mode %q", *modeStr)
	}
	qs, err := readTrace(*in)
	if err != nil {
		return err
	}
	eng, err := core.NewEngine(core.EngineConfig{
		Mode:          mode,
		Palm:          palm.Config{Workers: *workers, LoadBalance: true},
		CacheCapacity: 1 << 16,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	rs := keys.NewResultSet(*batch)
	var elapsed time.Duration
	remaining := 0
	for lo := 0; lo < len(qs); lo += *batch {
		hi := lo + *batch
		if hi > len(qs) {
			hi = len(qs)
		}
		chunk := keys.Number(qs[lo:hi])
		rs.Reset(len(chunk))
		start := time.Now()
		eng.ProcessBatch(chunk, rs)
		elapsed += time.Since(start)
		remaining += eng.Stats().RemainingQueries
	}
	fmt.Printf("replayed %d queries in %v: %.0f q/s (mode %s, %.1f%% eliminated)\n",
		len(qs), elapsed.Round(time.Millisecond), stats.Throughput(len(qs), elapsed),
		mode, 100*(1-float64(remaining)/float64(max(1, len(qs)))))
	return nil
}

func readTrace(path string) ([]keys.Query, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
