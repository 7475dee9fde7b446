package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// tinyOpts keeps harness tests fast: minuscule datasets, few batches.
func tinyOpts() Options {
	return Options{Scale: 0.0002, Workers: 2, Order: 16, Seed: 7, CacheCapacity: 256, Batches: 2}
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.normalized()
	if o.Scale <= 0 || o.Workers < 1 || o.Seed == 0 || o.CacheCapacity == 0 {
		t.Fatalf("defaults not filled: %+v", o)
	}
	if o2 := (Options{Scale: 5}).normalized(); o2.Scale > 1 {
		t.Fatal("out-of-range scale not clamped")
	}
}

func TestRunOneProducesThroughput(t *testing.T) {
	rn := NewRunner(tinyOpts())
	spec, err := workload.SpecByName("self-similar", rn.Opts.Scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.Mode{core.Original, core.Intra, core.IntraInter} {
		res, err := rn.RunOne(spec, mode, 0.25, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput <= 0 || res.Queries <= 0 || res.Elapsed <= 0 {
			t.Fatalf("mode %v: empty result %+v", mode, res)
		}
		if res.Latency.Count() == 0 {
			t.Fatalf("mode %v: no latency samples", mode)
		}
	}
}

func TestRunOneReductionOnSkewedData(t *testing.T) {
	rn := NewRunner(tinyOpts())
	spec, err := workload.SpecByName("zipfian", rn.Opts.Scale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rn.RunOne(spec, core.Intra, 0.5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReductionRatio() <= 0 {
		t.Fatalf("no reduction on zipfian data: %f", res.ReductionRatio())
	}
	org, err := rn.RunOne(spec, core.Original, 0.5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if org.ReductionRatio() != 0 {
		t.Fatalf("original mode must not reduce: %f", org.ReductionRatio())
	}
}

func TestThreadCounts(t *testing.T) {
	got := ThreadCounts(6)
	want := []int{1, 2, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("ThreadCounts(6) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ThreadCounts(6) = %v, want %v", got, want)
		}
	}
	if got := ThreadCounts(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("ThreadCounts(0) = %v", got)
	}
	if got := ThreadCounts(8); got[len(got)-1] != 8 {
		t.Fatalf("ThreadCounts(8) = %v", got)
	}
}

func TestExperimentRoster(t *testing.T) {
	exps := Experiments()
	ids := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// Every figure/table from DESIGN.md §3 must be present.
	for _, id := range []string{
		"fig4", "fig9a", "fig9b", "fig9c", "fig9d",
		"fig10a", "fig10b", "fig10c", "fig10d",
		"fig11a", "fig11b", "fig11c", "fig11d",
		"fig12a", "fig12b", "fig13", "fig14a", "fig14b", "fig14c",
		"fig15", "table1", "table2",
	} {
		if !ids[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, err := ExperimentByID("fig9a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ExperimentByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTable1Output(t *testing.T) {
	rn := NewRunner(tinyOpts())
	var buf bytes.Buffer
	if err := Table1(rn, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"gaussian", "taxi", "100000000", "2081427"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 8 { // header + 7 datasets
		t.Errorf("table1 has %d lines, want 8", lines)
	}
}

func TestFig4Output(t *testing.T) {
	rn := NewRunner(tinyOpts())
	var buf bytes.Buffer
	if err := Fig4(rn, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"taxi", "ycsb-latest", "ycsb-zipfian", "top1000_coverage"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 missing %q:\n%s", want, out)
		}
	}
}

func TestThroughputFigureOutput(t *testing.T) {
	rn := NewRunner(tinyOpts())
	var buf bytes.Buffer
	if err := ThroughputFigure(rn, &buf, "zipfian"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(UpdateRatios) {
		t.Fatalf("fig9 rows = %d, want %d:\n%s", len(lines), 1+len(UpdateRatios), buf.String())
	}
	if !strings.Contains(lines[0], "speedup") {
		t.Fatalf("header: %s", lines[0])
	}
}

func TestThroughputFigureUnknownDataset(t *testing.T) {
	rn := NewRunner(tinyOpts())
	if err := ThroughputFigure(rn, &bytes.Buffer{}, "nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestScalabilityFigureOutput(t *testing.T) {
	rn := NewRunner(tinyOpts())
	var buf bytes.Buffer
	if err := ScalabilityFigure(rn, &buf, "uniform"); err != nil {
		t.Fatal(err)
	}
	want := 1 + len(ThreadCounts(rn.Opts.Workers))*len(UpdateRatios)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != want {
		t.Fatalf("fig10 rows = %d, want %d", len(lines), want)
	}
}

func TestFig13Output(t *testing.T) {
	rn := NewRunner(tinyOpts())
	var buf bytes.Buffer
	if err := Fig13(rn, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "prefix-sum") || !strings.Contains(out, "naive") {
		t.Fatalf("fig13 missing balancing variants:\n%s", out)
	}
	if !strings.Contains(out, "imbalance(max/mean)") {
		t.Fatalf("fig13 missing imbalance summary:\n%s", out)
	}
}

func TestFig14Outputs(t *testing.T) {
	rn := NewRunner(tinyOpts())
	var a, b, c bytes.Buffer
	if err := Fig14a(rn, &a); err != nil {
		t.Fatal(err)
	}
	if err := Fig14b(rn, &b); err != nil {
		t.Fatal(err)
	}
	if err := Fig14c(rn, &c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.String(), "inter_qps") {
		t.Fatalf("fig14a:\n%s", a.String())
	}
	if !strings.Contains(b.String(), "intra_reduction") {
		t.Fatalf("fig14b:\n%s", b.String())
	}
	for _, stage := range []string{"sort_ms", "find_ms", "evaluate_ms", "modify_ms"} {
		if !strings.Contains(c.String(), stage) {
			t.Fatalf("fig14c missing %s:\n%s", stage, c.String())
		}
	}
}

func TestFig15Output(t *testing.T) {
	rn := NewRunner(tinyOpts())
	var buf bytes.Buffer
	if err := Fig15(rn, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 batch sizes
		t.Fatalf("fig15 rows:\n%s", buf.String())
	}
}

func TestAblation1Output(t *testing.T) {
	rn := NewRunner(tinyOpts())
	var buf bytes.Buffer
	if err := Ablation1(rn, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"org_qps", "intra_qps", "inter_qps"} {
		if !strings.Contains(out, want) {
			t.Fatalf("abl1 missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+len(UpdateRatios) {
		t.Fatalf("abl1 rows = %d", len(lines))
	}
}

func TestAblation2Output(t *testing.T) {
	rn := NewRunner(Options{Scale: 0.0005, Workers: 2, Order: 16, Seed: 3, CacheCapacity: 64})
	var buf bytes.Buffer
	if err := Ablation2(rn, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 { // header + 6 cycles
		t.Fatalf("abl2 rows = %d:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "palm_leaf_fill") {
		t.Fatalf("header: %s", lines[0])
	}
	// Every cycle row must carry five columns with parseable fills.
	for _, line := range lines[1:] {
		cols := strings.Split(line, "\t")
		if len(cols) != 5 {
			t.Fatalf("row %q", line)
		}
	}
}

func TestTable2Output(t *testing.T) {
	rn := NewRunner(Options{Scale: 0.0001, Workers: 2, Order: 16, Seed: 7, CacheCapacity: 64, Batches: 1})
	var buf bytes.Buffer
	if err := Table2(rn, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8 { // header + 7 datasets
		t.Fatalf("table2 rows = %d:\n%s", len(lines), buf.String())
	}
}

func TestRunShardOne(t *testing.T) {
	rn := NewRunner(tinyOpts())
	spec, err := workload.SpecByName("uniform", rn.Opts.Scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		res, err := rn.RunShardOne(spec, core.IntraInter, 0.25, shards, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput <= 0 || res.Queries <= 0 {
			t.Fatalf("shards=%d: empty result %+v", shards, res)
		}
		if res.ShardStats == nil || res.ShardStats.RoutedTotal() == 0 {
			t.Fatalf("shards=%d: no routing stats", shards)
		}
		if shards > 1 && res.ShardStats.Rebalances == 0 {
			t.Fatalf("shards=%d: rebalanceEvery=1 recorded no rebalances", shards)
		}
	}
}

func TestShardExpOutput(t *testing.T) {
	rn := NewRunner(Options{Scale: 0.0001, Workers: 2, Order: 16, Seed: 5, CacheCapacity: 64, Batches: 1})
	var buf bytes.Buffer
	if err := ShardExp(rn, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"imbalance", "uniform", "zipfian", "every8"} {
		if !strings.Contains(out, want) {
			t.Fatalf("shard exp missing %q:\n%s", want, out)
		}
	}
	// header + per dataset: shards 1 (no-rebalance only) + 3×2 arms.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if want := 1 + 2*7; len(lines) != want {
		t.Fatalf("shard exp rows = %d, want %d:\n%s", len(lines), want, out)
	}
}

func TestScaleInt(t *testing.T) {
	if scaleInt(1000, 0.5) != 500 || scaleInt(1, 0.0001) != 1 {
		t.Fatal("scaleInt")
	}
}

// TestEveryExperimentRunsAtMicroScale executes the whole roster end to
// end at a minuscule scale: each experiment must produce a non-empty,
// header-led output without error. This is the smoke test behind
// `qtransbench -experiment all`.
func TestEveryExperimentRunsAtMicroScale(t *testing.T) {
	if testing.Short() {
		t.Skip("micro-scale full roster takes ~20s")
	}
	rn := NewRunner(Options{Scale: 0.0001, Workers: 2, Order: 16, Seed: 5, CacheCapacity: 64, Batches: 1})
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(rn, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := strings.TrimSpace(buf.String())
			if out == "" {
				t.Fatalf("%s produced no output", e.ID)
			}
			if lines := strings.Split(out, "\n"); len(lines) < 2 {
				t.Fatalf("%s produced only %q", e.ID, out)
			}
		})
	}
}
