package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestGenInfoReplayPipeline(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.qtr")

	if err := run([]string{"gen", "-dataset", "zipfian", "-scale", "0.0005",
		"-queries", "5000", "-u", "0.5", "-out", out}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("trace not written: %v", err)
	}
	if err := run([]string{"info", "-in", out}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"org", "intra", "inter"} {
		if err := run([]string{"replay", "-in", out, "-mode", mode, "-batch", "1000", "-workers", "2"}); err != nil {
			t.Fatalf("replay %s: %v", mode, err)
		}
	}
}

func TestGenWithRushFlag(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "rush.qtr")
	if err := run([]string{"gen", "-dataset", "uniform", "-scale", "0.0005",
		"-queries", "2000", "-rush", "-out", out}); err != nil {
		t.Fatal(err)
	}
}

func TestImportCSVCommand(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "trips.csv")
	content := "a,b,c,d,e,lon,lat\n" +
		"x,x,x,x,x,-73.95,40.72\n" +
		"x,x,x,x,x,-73.96,40.73\n" +
		"x,x,x,x,x,999,999\n"
	if err := os.WriteFile(csv, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "trips.qtr")
	if err := run([]string{"import", "-csv", csv, "-loncol", "5", "-latcol", "6", "-out", out}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"info", "-in", out}); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"warp"},
		{"gen"},    // missing -out
		{"info"},   // missing -in
		{"import"}, // missing -csv/-out
		{"replay"}, // missing -in
		{"replay", "-in", "/nonexistent", "-mode", "org"},
		{"replay", "-in", "/nonexistent", "-mode", "warp"},
		{"replay", "-in", "/nonexistent", "-mode", "sim"},
		{"gen", "-dataset", "nope", "-out", "/tmp/x.qtr"},
		{"info", "-in", "/nonexistent"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
