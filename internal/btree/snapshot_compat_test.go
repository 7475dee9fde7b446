package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"testing"

	"repro/internal/keys"
)

// The files under testdata/ are snapshots written by an earlier
// version of this package, before the dense node layout was removed:
//
//	v1.snap         the pre-gap "QBT2" format (no layout byte)
//	v2-gapped.snap  "QBT3" with layout byte 0, saved from a gapped tree
//	v2-dense.snap   "QBT3" with layout byte 1, saved from a dense tree
//
// All three hold compatPairs at order 8; the v2 trees were built by
// serial inserts and deletes, so each went through splits and merges
// of its own layout before it was saved.

// compatPairs returns the contents of every testdata snapshot: keys
// i*7+3 for i < 400 except every fifth, plus SentinelKey (the one key
// a gapped leaf must tell apart from its sentinel tail); the value of
// key k is k*13+1, and SentinelKey's is 12345.
func compatPairs() ([]keys.Key, []keys.Value) {
	var ks []keys.Key
	var vs []keys.Value
	for i := 0; i < 400; i++ {
		if i%5 == 4 {
			continue
		}
		k := keys.Key(i*7 + 3)
		ks = append(ks, k)
		vs = append(vs, keys.Value(k*13+1))
	}
	return append(ks, SentinelKey), append(vs, 12345)
}

// TestLoadSnapshotsFromEarlierFormats loads every older snapshot kind,
// at its saved order and at other orders, into a tree that validates
// and holds exactly the saved pairs; a reloaded tree saves back with
// layout byte 0.
func TestLoadSnapshotsFromEarlierFormats(t *testing.T) {
	wantK, wantV := compatPairs()
	for _, name := range []string{"v1.snap", "v2-gapped.snap", "v2-dense.snap"} {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile("testdata/" + name)
			if err != nil {
				t.Fatal(err)
			}
			for _, order := range []int{0, MinOrder, DefaultOrder} {
				t.Run(fmt.Sprintf("order=%d", order), func(t *testing.T) {
					tr, err := Load(bytes.NewReader(raw), order)
					if err != nil {
						t.Fatal(err)
					}
					wantOrder := order
					if order == 0 {
						wantOrder = 8 // the saved order
					}
					if tr.Order() != wantOrder {
						t.Fatalf("loaded order %d, want %d", tr.Order(), wantOrder)
					}
					if err := tr.Validate(StrictFill); err != nil {
						t.Fatal(err)
					}
					gk, gv := tr.Dump()
					if len(gk) != len(wantK) || tr.Len() != len(wantK) {
						t.Fatalf("%d pairs (Len %d), want %d", len(gk), tr.Len(), len(wantK))
					}
					for i := range gk {
						if gk[i] != wantK[i] || gv[i] != wantV[i] {
							t.Fatalf("pair %d = (%d,%d), want (%d,%d)", i, gk[i], gv[i], wantK[i], wantV[i])
						}
					}
					if v, ok := tr.Search(SentinelKey); !ok || v != 12345 {
						t.Fatalf("Search(SentinelKey) = (%d,%v)", v, ok)
					}
					var buf bytes.Buffer
					if err := tr.Save(&buf); err != nil {
						t.Fatal(err)
					}
					if b := buf.Bytes()[8]; b != 0 {
						t.Fatalf("re-saved with layout byte %d, want 0", b)
					}
				})
			}
		})
	}
}

// TestLoadRejectsUnknownLayoutByte sets the v2 layout byte to every
// value past the two ever written and recomputes the checksum, so only
// the layout check itself can reject the snapshot.
func TestLoadRejectsUnknownLayoutByte(t *testing.T) {
	raw, err := os.ReadFile("testdata/v2-gapped.snap")
	if err != nil {
		t.Fatal(err)
	}
	for b := 2; b < 256; b++ {
		mut := append([]byte(nil), raw...)
		mut[8] = byte(b)
		body := mut[4 : len(mut)-4]
		binary.LittleEndian.PutUint32(mut[len(mut)-4:], crc32.Checksum(body, castagnoli))
		if _, err := Load(bytes.NewReader(mut), 0); err == nil {
			t.Fatalf("layout byte %d accepted", b)
		}
	}
}
