// Command benchmark is the repository's one benchmark: six named
// workloads driven through the public qtrans facade, checked against
// internal/oracle, reported as the end-to-end metrics BENCHMARK.json
// names (untraced run) or as per-module layer metrics with a span file
// (traced run). README.md in this directory describes every workload
// and metric; `-compare A.json B.json` compares two result documents.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// outDir receives result documents, span files and the temporary WAL
// and tier directories; benchmark/.gitignore keeps it out of the tree.
var outDir = "benchmark/out"

// config is what one invocation fixes for every workload it runs.
type config struct {
	seed      int64
	measure   time.Duration
	workers   int
	quick     bool
	trace     bool
	setupReps int
}

// value is one reported metric; a nil Value (JSON null) means the
// workload does not use that layer.
type value struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// result is one workload's outcome.
type result struct {
	Name      string           `json:"name"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Mismatch  string           `json:"first_mismatch,omitempty"`
	Warning   string           `json:"warning,omitempty"`
	Samples   map[string]int   `json:"samples"`
	Metrics   map[string]value `json:"metrics"`
}

func newResult(name string) *result {
	return &result{Name: name, Samples: map[string]int{}, Metrics: map[string]value{}}
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

func (r *result) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in spec.go")
	}
	r.Metrics[name] = value{Value: &v, Unit: unit}
}

// finish takes the verdict from the oracle mirror.
func (r *result) finish(m *mirror) {
	r.Attempted, r.Failed, r.Mismatch = m.attempted, m.failed, m.first
	r.Correct = r.Failed == 0
}

// fillNulls reports every declared metric the run did not set as null.
func (r *result) fillNulls(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.Metrics[d.name]; !ok {
			r.Metrics[d.name] = value{Unit: d.unit}
		}
	}
}

// driverLine is the one-line form the benchmark contract asks for:
// exactly correct, attempted, failed and metrics, nulls written as 0.
func (r *result) driverLine() string {
	type num struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]num `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]num{}}
	for name, v := range r.Metrics {
		n := num{Unit: v.Unit}
		if v.Value != nil {
			n.Value = *v.Value
		}
		line.Metrics[name] = n
	}
	out, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(out)
}

// stamp records where and how a result document was produced; -compare
// refuses documents whose nproc, GOMAXPROCS, seed, run length or
// frozen work amounts differ.
type stamp struct {
	GoVersion  string         `json:"go_version"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Commit     string         `json:"commit"`
	Kernel     string         `json:"kernel"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Quick      bool           `json:"quick"`
	Work       map[string]any `json:"work"`
	Claim      *string        `json:"claim"`
}

type document struct {
	Stamp     stamp     `json:"stamp"`
	Workloads []*result `json:"workloads"`
}

func newStamp(cfg config, run []spec) stamp {
	st := stamp{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: "unknown", Kernel: "unknown",
		Seed: cfg.seed, Seconds: cfg.measure.Seconds(), Trace: cfg.trace, Quick: cfg.quick,
		Work: map[string]any{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				st.Commit = kv.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(b))
	}
	for _, s := range run {
		st.Work[s.name] = map[string]any{
			"key_range": s.keyRange, "prefill": s.prefill, "batch": s.batch, "warm_batches": s.warm,
			"verify_every": s.verifyEvery, "chunk": s.chunk, "checkpoint_every": s.checkpointEvery,
			"resident_keys": s.residentKeys, "rate": s.rate, "loop": s.loop,
		}
	}
	return st
}

func selectSpecs(names string, quick bool) ([]spec, error) {
	all := specs()
	var run []spec
	if names == "" {
		run = all
	} else {
		for _, n := range strings.Split(names, ",") {
			found := false
			for _, s := range all {
				if s.name == n {
					run, found = append(run, s), true
				}
			}
			if !found {
				return nil, fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(specNames(all), ", "))
			}
		}
	}
	for i := range run {
		run[i] = run[i].scaled(quick)
	}
	return run, nil
}

func specNames(ss []spec) []string {
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.name
	}
	return names
}

// runWorkload runs one workload, traced or not, and fills in nulls.
func runWorkload(s spec, cfg config) (*result, error) {
	var r *result
	var err error
	switch {
	case cfg.trace:
		r, err = runTraced(s, cfg)
	case s.served:
		r, err = runServed(s, cfg)
	default:
		r, err = runBatchWorkload(s, cfg)
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		r.fillNulls(perLayer)
	} else {
		r.fillNulls(endToEnd)
	}
	return r, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
	names := fs.String("workload", "", "comma-separated workloads to run (default: all)")
	seconds := fs.Float64("seconds", 12, "length of each workload's measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced pass: per-layer metrics and a span file per workload")
	quick := fs.Bool("quick", false, "smoke-test sizes (about 1/64 of the data, every batch verified)")
	runs := fs.Int("runs", 1, "repeat every workload this many times into one result document, for -compare")
	out := fs.String("out", "", "result document (default "+outDir+"/result.json, or result-trace.json)")
	compare := fs.Bool("compare", false, "compare two result documents: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result documents")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace is 0 or 1")
		return 2
	}
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		fmt.Fprintf(os.Stderr, "benchmark: GOMAXPROCS=%d exceeds nproc=%d; the spine is sized for GOMAXPROCS = Workers = nproc\n", p, n)
		return 2
	}
	specs, err := selectSpecs(*names, *quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cfg := config{
		seed: *seed, measure: time.Duration(*seconds * float64(time.Second)),
		workers: runtime.GOMAXPROCS(0), quick: *quick, trace: *trace == 1, setupReps: setupReps,
	}
	if *out == "" {
		*out = filepath.Join(outDir, "result.json")
		if cfg.trace {
			*out = filepath.Join(outDir, "result-trace.json")
		}
	}

	doc := document{Stamp: newStamp(cfg, specs)}
	ok := true
	for i := 0; i < *runs; i++ {
		for _, s := range specs {
			r, err := runWorkload(s, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			doc.Workloads = append(doc.Workloads, r)
			ok = ok && r.Correct
			printTable(os.Stderr, r, cfg.trace)
			fmt.Println(r.driverLine())
		}
	}
	if err := writeDocument(*out, doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

func writeDocument(path string, doc document) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable writes a workload's metrics for a person to read.
func printTable(w *os.File, r *result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	verdict := "correct"
	if !r.Correct {
		verdict = "FAILED: " + r.Mismatch
	}
	if r.Warning != "" {
		verdict += "; WARNING: " + r.Warning
	}
	fmt.Fprintf(w, "%s: attempted %d, failed %d, %s; samples %v\n", r.Name, r.Attempted, r.Failed, verdict, r.Samples)
	for _, d := range defs {
		if v := r.Metrics[d.name].Value; v != nil {
			fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.name, *v, d.unit)
		} else {
			fmt.Fprintf(w, "  %-36s %16s %s\n", d.name, "null", d.unit)
		}
	}
}
