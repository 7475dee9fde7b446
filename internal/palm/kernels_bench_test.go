package palm

import (
	"math/rand"
	"testing"

	"repro/internal/btree"
	"repro/internal/keys"
)

// BenchmarkKernels measures the sorted-batch tree kernels (DESIGN.md §8)
// in isolation and end to end, single-threaded so the kernel effect is
// not hidden behind BSP parallelism:
//
//	descend    Stage 1 only (findLeaves) — path-reuse + branchless search
//	leafapply  Stage 2 only (evalGroup)  — gap claims and merge apply
//	endtoend   ProcessBatch on a 1:1:2 insert/delete/search mix
//
// The leafapply batch overwrites existing keys, so leaf shapes are
// identical on every iteration and it measures steady state. A
// candidate kernel (say, a different finder) is judged by adding an
// arm beside the one it would replace.
func BenchmarkKernels(b *testing.B) {
	const treeKeys = 1 << 16
	const batchLen = 1 << 14

	build := func(b *testing.B) *Processor {
		b.Helper()
		p, err := New(Config{Order: btree.DefaultOrder, Workers: 1, LoadBalance: true}, nil)
		if err != nil {
			b.Fatal(err)
		}
		seed := make([]keys.Query, treeKeys)
		for i := range seed {
			seed[i] = keys.Insert(keys.Key(i*2), keys.Value(i))
		}
		p.ProcessBatch(keys.Number(seed), keys.NewResultSet(len(seed)))
		return p
	}

	b.Run("descend", func(b *testing.B) {
		p := build(b)
		defer p.Close()
		r := rand.New(rand.NewSource(9))
		batch := make([]keys.Query, batchLen)
		for i := range batch {
			batch[i] = keys.Search(keys.Key(r.Intn(2 * treeKeys)))
		}
		keys.Number(batch)
		keys.SortByKey(batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.findLeaves(batch)
		}
		b.SetBytes(batchLen)
	})

	b.Run("leafapply", func(b *testing.B) {
		p := build(b)
		defer p.Close()
		r := rand.New(rand.NewSource(9))
		batch := make([]keys.Query, batchLen)
		for i := range batch {
			// Overwrite an existing key: leaf sizes never change.
			batch[i] = keys.Insert(keys.Key(2*r.Intn(treeKeys)), keys.Value(i))
		}
		keys.Number(batch)
		keys.SortByKey(batch)
		p.findLeaves(batch)
		rs := keys.NewResultSet(batchLen)
		w := &p.perW[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for gi := range p.groups {
				p.evalGroup(&p.groups[gi], batch, rs, w, false)
			}
		}
		b.SetBytes(batchLen)
	})

	b.Run("endtoend", func(b *testing.B) {
		p := build(b)
		defer p.Close()
		r := rand.New(rand.NewSource(9))
		batch := make([]keys.Query, batchLen)
		rs := keys.NewResultSet(batchLen)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j := range batch {
				k := keys.Key(r.Intn(4 * treeKeys))
				switch r.Intn(4) {
				case 0:
					batch[j] = keys.Insert(k, keys.Value(j))
				case 1:
					batch[j] = keys.Delete(k)
				default:
					batch[j] = keys.Search(k)
				}
			}
			keys.Number(batch)
			rs.Reset(batchLen)
			b.StartTimer()
			p.ProcessBatch(batch, rs)
		}
		b.SetBytes(batchLen)
	})
}
