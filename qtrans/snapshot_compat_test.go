package qtrans

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/keys"
	"repro/internal/oracle"
)

// TestLoadEarlierSnapshotFormats restores, through the facade, the
// snapshots that internal/btree/testdata keeps from before the dense
// node layout was removed: v1 ("QBT2"), v2 with layout byte 0 and v2
// with layout byte 1 (saved from a dense tree). Each must load, whole
// or split across shards, with the saved contents (keys i*7+3 for
// i < 400 except every fifth, value k*13+1, plus the maximum key with
// value 12345) and take writes afterwards.
func TestLoadEarlierSnapshotFormats(t *testing.T) {
	want := map[Key]Value{^Key(0): 12345}
	for i := 0; i < 400; i++ {
		if i%5 != 4 {
			k := Key(i*7 + 3)
			want[k] = Value(k*13 + 1)
		}
	}
	for _, name := range []string{"v1.snap", "v2-gapped.snap", "v2-dense.snap"} {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile("../internal/btree/testdata/" + name)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					db, err := Load(bytes.NewReader(raw), Options{Workers: 2, Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					if db.Len() != len(want) {
						t.Fatalf("Len = %d, want %d", db.Len(), len(want))
					}
					for k, v := range want {
						if got, ok := db.Get(k); !ok || got != v {
							t.Fatalf("Get(%d) = (%d,%v), want %d", k, got, ok, v)
						}
					}
					seen := 0
					db.Scan(func(k Key, v Value) bool {
						if want[k] != v {
							t.Fatalf("Scan yielded (%d,%d)", k, v)
						}
						seen++
						return true
					})
					if seen != len(want) {
						t.Fatalf("Scan yielded %d pairs, want %d", seen, len(want))
					}
					db.Put(4, 44)
					if v, ok := db.Get(4); !ok || v != 44 {
						t.Fatalf("Get(4) after Put = (%d,%v)", v, ok)
					}
				})
			}
		})
	}
}

// legacyLogBatches regenerates the workload behind testdata/legacy-wal:
// twelve 200-query batches over keys [0, 500) mixing searches,
// inserts, deletes and AddDelta RMWs (math/rand seed 47).
func legacyLogBatches() [][]keys.Query {
	r := rand.New(rand.NewSource(47))
	var out [][]keys.Query
	for i := 0; i < 12; i++ {
		b := NewBatch()
		for j := 0; j < 200; j++ {
			k := Key(r.Intn(500))
			switch r.Intn(5) {
			case 0:
				b.Search(k)
			case 1, 2:
				b.Insert(k, Value(r.Intn(1000)+1))
			case 3:
				b.Delete(k)
			default:
				b.AddDelta(k, 3)
			}
		}
		out = append(out, b.qs)
	}
	return out
}

// TestRecoverPerShardCommitLog recovers a log directory written when
// each shard logged its own part record and a commit marker sealed the
// batch: testdata/legacy-wal holds legacyLogBatches' first eight
// batches run on four shards (segment 1, part and marker records) and
// the last four on one shard (segment 2, whole-batch records of the
// key-sorted queries, searches included). It must recover, under one
// or four shards, to the state after all twelve batches, and take
// writes afterwards.
func TestRecoverPerShardCommitLog(t *testing.T) {
	orc := oracle.New()
	rs := keys.NewResultSet(0)
	for _, b := range legacyLogBatches() {
		keys.Number(b)
		rs.Reset(len(b))
		orc.ApplyAll(b, rs)
	}
	wk, wv := orc.Dump()
	names, err := filepath.Glob("testdata/legacy-wal/*.seg")
	if err != nil || len(names) != 2 {
		t.Fatalf("legacy segments: %v, %v", names, err)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			for _, name := range names {
				raw, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			db, err := Open(Options{Order: 8, Workers: 2, Shards: shards, ShardKeyMax: 499, Durability: Durability{Dir: dir}})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			gk, gv := dump(db)
			if !slices.Equal(gk, wk) || !slices.Equal(gv, wv) {
				t.Fatalf("recovered %d pairs, want %d (or values differ)", len(gk), len(wk))
			}
			db.Put(7, 77)
			if v, ok := db.Get(7); !ok || v != 77 || db.Err() != nil {
				t.Fatalf("Get(7) after Put = (%d,%v), err %v", v, ok, db.Err())
			}
		})
	}
}
