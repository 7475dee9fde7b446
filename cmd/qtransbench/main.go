// Command qtransbench regenerates the paper's figures and tables as
// text rows (see DESIGN.md §3 for the experiment index).
//
// Usage:
//
//	qtransbench -experiment fig9a [-scale 0.002] [-workers N] [-seed S]
//	qtransbench -experiment all
//	qtransbench -list
//
// At -scale 1 the Table I dataset sizes match the paper (100M queries
// for the synthetic datasets); the default scale keeps every experiment
// at laptop scale. Output columns are tab-separated with a header row.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/btree"
	"repro/internal/harness"
	"repro/internal/textplot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "qtransbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("qtransbench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "", "experiment id (fig4, fig9a..d, fig10a..d, fig11a..d, fig12a..b, fig13, fig14a..c, fig15, abl1, abl2, pipe, shard, autoshard, tiered, scan, metrics, serve, table1, table2) or 'all'")
		list       = fs.Bool("list", false, "list available experiments and exit")
		scale      = fs.Float64("scale", 0.002, "dataset scale factor in (0,1]; 1 = paper scale (Table I sizes)")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "BSP worker threads")
		order      = fs.Int("order", 0, "B+ tree order (0 = default)")
		seed       = fs.Int64("seed", 42, "workload random seed")
		cacheCap   = fs.Int("cache", 1<<16, "top-K cache capacity for inter-batch runs")
		batches    = fs.Int("batches", 0, "cap on batches per measurement (0 = whole dataset)")
		plot       = fs.Bool("plot", false, "render each experiment's rows as an ASCII chart too")
		jsonPath   = fs.String("json", "", "also write the experiment rows to FILE as JSON")

		conns     = fs.Int("conns", 0, "concurrent client connections for the serve experiment (0 = scale-derived)")
		serverBin = fs.String("serverbin", "", "path to a built qtransserver binary for the serve experiment (empty = in-process server)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale <= 0 || *scale > 1 {
		return fmt.Errorf("-scale %v out of range (0,1]", *scale)
	}
	if *workers < 1 {
		return fmt.Errorf("-workers %d must be >= 1", *workers)
	}
	if *order != 0 && *order < btree.MinOrder {
		return fmt.Errorf("-order %d below minimum %d (0 selects the default)", *order, btree.MinOrder)
	}
	if *cacheCap < 0 {
		return fmt.Errorf("-cache %d must be >= 0", *cacheCap)
	}
	if *batches < 0 {
		return fmt.Errorf("-batches %d must be >= 0 (0 = whole dataset)", *batches)
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *experiment == "" {
		fs.Usage()
		return fmt.Errorf("missing -experiment (or -list)")
	}

	rn := harness.NewRunner(harness.Options{
		Scale:         *scale,
		Workers:       *workers,
		Order:         *order,
		Seed:          *seed,
		CacheCapacity: *cacheCap,
		Batches:       *batches,
		Conns:         *conns,
		ServerBin:     *serverBin,
	})

	exps := harness.Experiments()
	if *experiment != "all" {
		e, err := harness.ExperimentByID(*experiment)
		if err != nil {
			return err
		}
		exps = []harness.Experiment{e}
	}
	var jsonOut []jsonExperiment
	for _, e := range exps {
		fmt.Printf("== %s: %s\n", e.ID, e.Title)
		var buf bytes.Buffer
		if err := e.Run(rn, &buf); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		os.Stdout.WriteString(buf.String())
		if *jsonPath != "" {
			jsonOut = append(jsonOut, jsonFromRows(e, buf.String()))
		}
		if *plot {
			if chart := chartFromRows(e.Title, buf.String()); chart != nil {
				fmt.Println()
				if err := chart.Render(os.Stdout); err != nil {
					return err
				}
			}
		}
		fmt.Println()
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(jsonOut, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// jsonExperiment is one experiment's rows in the -json output: the
// tab-separated text table split into a header and string cells, so
// downstream tooling need not re-parse column alignment.
type jsonExperiment struct {
	Experiment string     `json:"experiment"`
	Title      string     `json:"title"`
	Header     []string   `json:"header"`
	Rows       [][]string `json:"rows"`
}

// jsonFromRows splits an experiment's text output into the JSON shape.
func jsonFromRows(e harness.Experiment, raw string) jsonExperiment {
	out := jsonExperiment{Experiment: e.ID, Title: e.Title}
	lines := strings.Split(strings.TrimRight(raw, "\n"), "\n")
	for i, line := range lines {
		if line == "" {
			continue
		}
		cols := strings.Split(line, "\t")
		if i == 0 {
			out.Header = cols
		} else {
			out.Rows = append(out.Rows, cols)
		}
	}
	return out
}

// chartFromRows converts an experiment's tab-separated rows (header +
// data; first column = x label, numeric columns = series) into a bar
// chart. Returns nil when the rows don't fit that shape (e.g. table1).
func chartFromRows(title, raw string) *textplot.Chart {
	lines := strings.Split(strings.TrimSpace(raw), "\n")
	if len(lines) < 2 {
		return nil
	}
	header := strings.Split(lines[0], "\t")
	if len(header) < 2 {
		return nil
	}
	chart := &textplot.Chart{Title: title}
	// Identify numeric columns from the first data row.
	first := strings.Split(lines[1], "\t")
	if len(first) != len(header) {
		return nil
	}
	numeric := make([]bool, len(header))
	count := 0
	for i := 1; i < len(first); i++ {
		if _, err := strconv.ParseFloat(first[i], 64); err == nil {
			numeric[i] = true
			count++
		}
	}
	if count == 0 {
		return nil
	}
	// When throughput columns are present, chart only those: mixing
	// q/s with ratios on one scale makes the ratio bars unreadable.
	hasQPS := false
	for i, h := range header {
		if numeric[i] && strings.HasSuffix(h, "_qps") {
			hasQPS = true
		}
	}
	if hasQPS {
		count = 0
		for i, h := range header {
			if numeric[i] && !strings.HasSuffix(h, "_qps") {
				numeric[i] = false
			} else if numeric[i] {
				count++
			}
		}
	}
	for i, h := range header {
		if numeric[i] {
			chart.Series = append(chart.Series, textplot.Series{Name: h})
		}
	}
	for _, line := range lines[1:] {
		cols := strings.Split(line, "\t")
		if len(cols) != len(header) {
			return nil
		}
		chart.XLabels = append(chart.XLabels, header[0]+"="+cols[0])
		si := 0
		for i := 1; i < len(cols); i++ {
			if !numeric[i] {
				continue
			}
			v, err := strconv.ParseFloat(cols[i], 64)
			if err != nil {
				return nil
			}
			chart.Series[si].Values = append(chart.Series[si].Values, v)
			si++
		}
	}
	return chart
}
