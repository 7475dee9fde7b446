package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/keys"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func quickConfig(trace bool) config {
	return config{seed: 7, measure: 300 * time.Millisecond, workers: 2, quick: true, trace: trace, setupReps: 2}
}

// BENCHMARK.json and spec.go must name the same workloads and metrics.
func TestManifestMatchesSpec(t *testing.T) {
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ss := specs()
	if len(man.Workloads) != len(ss) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(man.Workloads), len(ss))
	}
	for i, w := range man.Workloads {
		if w.Name != ss[i].name || w.Why != ss[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q differs from spec.go %q", i, w.Name, ss[i].name)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if len(man.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(man.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range man.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v differs from spec.go %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || m.Unit == "" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %q: bad name, unit or bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error("setup_s (s, lower) is missing")
	}
	if len(man.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(man.PerLayer), len(perLayer))
	}
	for i, m := range man.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v differs from spec.go %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || m.Unit == "" {
			t.Errorf("per-layer %q: bad name or unit", m.Name)
		}
	}
}

func metricNames(defs []metricDef) map[string]bool {
	out := map[string]bool{}
	for _, d := range defs {
		out[d.name] = true
	}
	return out
}

// Every workload at -quick size, untraced: correct, every end-to-end
// metric present and non-zero, and the driver's line has exactly the
// contract's keys.
func TestQuickUntraced(t *testing.T) {
	outDir = t.TempDir()
	for _, s := range specs() {
		r, err := runWorkload(s.scaled(true), quickConfig(false))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %s%s", s.name, r.Correct, r.Attempted, r.Failed, r.Mismatch, r.Warning)
		}
		want := metricNames(endToEnd)
		for name, v := range r.Metrics {
			if !want[name] {
				t.Errorf("%s: reports undeclared metric %q", s.name, name)
			}
			if v.Value == nil || *v.Value <= 0 || v.Unit == "" {
				t.Errorf("%s: %s = %v %q, want a positive number with a unit", s.name, name, v.Value, v.Unit)
			}
			delete(want, name)
		}
		for name := range want {
			t.Errorf("%s: metric %q is missing", s.name, name)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(r.driverLine()), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Errorf("%s: driver line has keys %v", s.name, line)
		}
	}
	if entries, _ := os.ReadDir(outDir); len(entries) != 0 {
		t.Errorf("temporary directories left behind: %v", entries)
	}
}

// Every workload at -quick size, traced: every per-layer metric is
// present, layers a workload bypasses are null, and a span file is
// written.
func TestQuickTraced(t *testing.T) {
	outDir = t.TempDir()
	own := map[string]string{"wal.": "durable-shard-stream", "shard.": "durable-shard-stream", "tier.": "tiered-drift-batch", "batcher.": "served-open", "server.": "served-open"}
	for _, s := range specs() {
		r, err := runWorkload(s.scaled(true), quickConfig(true))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %s%s", s.name, r.Correct, r.Attempted, r.Failed, r.Mismatch, r.Warning)
		}
		if len(r.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", s.name, len(r.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			v, ok := r.Metrics[d.name]
			if !ok || v.Unit != d.unit {
				t.Errorf("%s: %s missing or unit %q", s.name, d.name, v.Unit)
			}
			for prefix, owner := range own {
				if strings.HasPrefix(d.name, prefix) && owner != s.name && v.Value != nil {
					t.Errorf("%s: %s = %v, want null outside %s", s.name, d.name, *v.Value, owner)
				}
			}
		}
		for _, name := range []string{"trace.overhead_share", "qtrans.open_s", "core.reduction_ratio"} {
			if r.Metrics[name].Value == nil {
				t.Errorf("%s: %s is null", s.name, name)
			}
		}
		var spans []span
		data, err := os.ReadFile(filepath.Join(outDir, "trace-"+s.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s: span file: %v, %d spans", s.name, err, len(spans))
		}
		for i, sp := range spans {
			if sp.Name == "" || sp.EndNS < sp.StartNS || sp.Parent >= i {
				t.Errorf("%s: span %d malformed: %+v", s.name, i, sp)
				break
			}
		}
	}
}

// An op that is sent late because an earlier send stalled is still
// timed from the moment it was due.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	var ops []op
	for i := 0; i < 20; i++ {
		ops = append(ops, op{q: keys.Search(keys.Key(i)), due: time.Duration(i) * time.Millisecond})
	}
	first := true
	sk := sink{
		send: func(keys.Query) (func() (keys.Result, bool, bool), error) {
			if first {
				first = false
				time.Sleep(stall)
			}
			return func() (keys.Result, bool, bool) { return keys.Result{}, true, true }, nil
		},
		flush: func() error { return nil },
	}
	res, _ := openLoop([]sink{sk}, [][]op{ops})
	for i, r := range res[0] {
		if want := stall - ops[i].due; r.lat < want {
			t.Errorf("op %d due at %v: latency %v, want at least %v (the stall counts)", i, ops[i].due, r.lat, want)
		}
		if i > 0 && r.late < stall-ops[i].due {
			t.Errorf("op %d: generator lateness %v, want at least %v", i, r.late, stall-ops[i].due)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "run", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "a", StartNS: 10, EndNS: 30, Parent: 0},
		{Name: "b", StartNS: 20, EndNS: 50, Parent: 0}, // overlaps a by 10
		{Name: "c", StartNS: 60, EndNS: 70, Parent: 0},
		{Name: "c1", StartNS: 62, EndNS: 66, Parent: 3},
	}
	want := []int64{50, 20, 30, 6, 4}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	if c := coverage(spans, "run"); c != 0.5 {
		t.Errorf("coverage = %v, want 0.5", c)
	}
	tr := newTracer()
	p := tr.begin("p", -1, 0)
	off := tr.add("x", p, 0, 0, 5)
	off = tr.add("skipped", p, 0, off, 0)
	tr.add("y", p, 0, off, 7)
	if len(tr.spans) != 3 || tr.spans[2].StartNS != tr.spans[0].StartNS+5 || tr.spans[2].EndNS != tr.spans[0].StartNS+12 {
		t.Errorf("stage spans not laid end to end: %+v", tr.spans)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got := quartileSpread(v); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestStampAndCompare(t *testing.T) {
	ss, err := selectSpecs("skew-batch", true)
	if err != nil {
		t.Fatal(err)
	}
	st := newStamp(quickConfig(false), ss)
	if st.GoVersion == "" || st.NProc < 1 || st.GOMAXPROCS < 1 || st.Commit == "" || st.Kernel == "" || st.Seed != 7 || st.Seconds <= 0 || len(st.Work) != 1 || st.Claim != nil {
		t.Errorf("incomplete stamp: %+v", st)
	}
	other := st
	other.Seed = 8
	if comparable(st, other) == "" {
		t.Error("stamps with different seeds compare")
	}
	if comparable(st, st) != "" {
		t.Error("a stamp does not compare with itself")
	}

	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	doc := func(qps ...float64) document {
		d := document{Stamp: st}
		for _, q := range qps {
			r := newResult("skew-batch")
			r.Correct = true
			r.set("throughput_qps", q)
			d.Workloads = append(d.Workloads, r)
		}
		return d
	}
	for _, c := range []struct {
		b       document
		verdict string
		code    int
	}{
		{doc(99, 100, 101), "ok", 0},
		{doc(49, 50, 51), "worse", 1},
		{doc(10, 100, 190), "unresolved", 0},
	} {
		var out bytes.Buffer
		if code := compareDocuments(man, doc(99, 100, 101), c.b, &out); code != c.code || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("want %q and exit %d, got exit %d:\n%s", c.verdict, code, c.code, out.String())
		}
	}
}

func TestFlagsRejected(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-compare", "only-one.json"}, {"stray"}} {
		if code := run(args); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
