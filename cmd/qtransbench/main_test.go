package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingExperiment(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing -experiment accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunRejectsBadValues(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"zero scale", []string{"-experiment", "table1", "-scale", "0"}},
		{"negative scale", []string{"-experiment", "table1", "-scale", "-1"}},
		{"scale above one", []string{"-experiment", "table1", "-scale", "2"}},
		{"zero workers", []string{"-experiment", "table1", "-workers", "0"}},
		{"negative workers", []string{"-experiment", "table1", "-workers", "-1"}},
		{"order below minimum", []string{"-experiment", "table1", "-order", "2"}},
		{"negative order", []string{"-experiment", "table1", "-order", "-8"}},
		{"negative cache", []string{"-experiment", "table1", "-cache", "-1"}},
		{"negative batches", []string{"-experiment", "table1", "-batches", "-3"}},
		{"json to unwritable path", []string{"-experiment", "table1", "-scale", "0.0001", "-json", "/no/such/dir/out.json"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.args); err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
		})
	}
}

func TestRunTinyExperiment(t *testing.T) {
	// table1 is computation-free; fig4 exercises the generators.
	if err := run([]string{"-experiment", "table1", "-scale", "0.0001"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTinyExperimentJSON(t *testing.T) {
	path := t.TempDir() + "/out.json"
	if err := run([]string{"-experiment", "table1", "-scale", "0.0001", "-json", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []jsonExperiment
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Experiment != "table1" {
		t.Fatalf("json = %+v", out)
	}
	if len(out[0].Header) == 0 || len(out[0].Rows) == 0 {
		t.Fatalf("empty header/rows: %+v", out[0])
	}
}

func TestRunTinyExperimentWithPlot(t *testing.T) {
	if err := run([]string{"-experiment", "table1", "-scale", "0.0001", "-plot"}); err != nil {
		t.Fatal(err)
	}
}

func TestChartFromRows(t *testing.T) {
	raw := "u\torg_qps\topt_qps\tspeedup\n0\t1000\t2000\t2\n0.25\t1500\t1800\t1.2\n"
	c := chartFromRows("t", raw)
	if c == nil {
		t.Fatal("nil chart")
	}
	// speedup column filtered out because _qps columns exist.
	if len(c.Series) != 2 || c.Series[0].Name != "org_qps" || c.Series[1].Name != "opt_qps" {
		t.Fatalf("series = %+v", c.Series)
	}
	if len(c.XLabels) != 2 || c.XLabels[0] != "u=0" {
		t.Fatalf("xlabels = %v", c.XLabels)
	}
	if c.Series[1].Values[0] != 2000 {
		t.Fatalf("values = %v", c.Series[1].Values)
	}
}

func TestChartFromRowsNonNumeric(t *testing.T) {
	if c := chartFromRows("t", "a\tb\nx\ty\n"); c != nil {
		t.Fatalf("non-numeric rows produced a chart: %+v", c)
	}
	if c := chartFromRows("t", "only-header\n"); c != nil {
		t.Fatal("header-only rows produced a chart")
	}
	// Ragged rows (fig13's imbalance summary) must be rejected, not
	// mis-parsed.
	if c := chartFromRows("t", "a\tb\n1\t2\nsummary-row\n"); c != nil {
		t.Fatal("ragged rows produced a chart")
	}
}
