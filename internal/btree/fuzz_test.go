package btree

import (
	"testing"

	"repro/internal/keys"
	"repro/internal/oracle"
)

// FuzzTreeOps drives the serial tree with an op stream decoded from
// fuzz bytes and cross-checks every observable against the oracle plus
// full structural validation. Run with `go test -fuzz=FuzzTreeOps`;
// the seeds below execute in every normal test run.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x42, 0x81, 0x01, 0x02}, uint8(4))
	f.Add([]byte{0xff, 0xfe, 0xfd, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06}, uint8(3))
	f.Add([]byte("insert-delete-search-churn-seed"), uint8(7))

	f.Fuzz(func(t *testing.T, ops []byte, orderRaw uint8) {
		order := 3 + int(orderRaw)%30
		tr := MustNew(order)
		o := oracle.New()
		for i := 0; i+1 < len(ops); i += 2 {
			op, kb := ops[i], ops[i+1]
			k := keys.Key(kb % 64) // small key space to force collisions
			switch op % 4 {
			case 0, 1:
				v := keys.Value(op) << 8
				tr.Insert(k, v)
				o.Apply(keys.Insert(k, v), nil)
			case 2:
				want := func() bool { _, ok := o.Get(k); o.Apply(keys.Delete(k), nil); return ok }()
				if tr.Delete(k) != want {
					t.Fatalf("Delete(%d) disagreed with oracle", k)
				}
			default:
				wv, wok := o.Get(k)
				gv, gok := tr.Search(k)
				if gok != wok || (gok && gv != wv) {
					t.Fatalf("Search(%d) = %d,%v; oracle %d,%v", k, gv, gok, wv, wok)
				}
			}
		}
		if err := tr.Validate(StrictFill); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != o.Len() {
			t.Fatalf("Len %d, oracle %d", tr.Len(), o.Len())
		}
		gk, gv := tr.Dump()
		wk, wv := o.Dump()
		for i := range gk {
			if gk[i] != wk[i] || gv[i] != wv[i] {
				t.Fatalf("dump mismatch at %d", i)
			}
		}
	})
}
