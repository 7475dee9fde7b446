package qtrans

import (
	"bytes"
	"fmt"
	"os"
	"testing"
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
