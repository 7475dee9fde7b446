package main

import "testing"

func TestRunTinyProbe(t *testing.T) {
	err := run([]string{"-dataset", "uniform", "-scale", "0.0002", "-batches", "1", "-workers", "1", "-modes", "org,intra"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownDataset(t *testing.T) {
	if err := run([]string{"-dataset", "nope", "-scale", "0.0002"}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunUnknownMode(t *testing.T) {
	if err := run([]string{"-dataset", "uniform", "-scale", "0.0002", "-modes", "warp"}); err == nil {
		t.Fatal("unknown mode accepted")
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
		{"zero scale", []string{"-scale", "0"}},
		{"negative scale", []string{"-scale", "-0.5"}},
		{"scale above one", []string{"-scale", "1.5"}},
		{"negative u", []string{"-u", "-0.1"}},
		{"u above one", []string{"-u", "1.1"}},
		{"zero workers", []string{"-workers", "0"}},
		{"negative workers", []string{"-workers", "-2"}},
		{"zero batches", []string{"-batches", "0"}},
		{"negative batches", []string{"-batches", "-1"}},
		{"zero shards", []string{"-shards", "0"}},
		{"negative shards", []string{"-shards", "-4"}},
		{"negative rebalance", []string{"-rebalance", "-1"}},
		{"rebalance without shards", []string{"-rebalance", "5"}},
		{"rebalance with one shard", []string{"-rebalance", "5", "-shards", "1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.args); err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
		})
	}
}
