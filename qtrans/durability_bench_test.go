package qtrans

import (
	"math/rand"
	"os"
	"testing"
	"time"
)

// BenchmarkDurability measures the price of crash safety on the real
// filesystem: the durability-off baseline against the WAL under each
// fsync policy (EXPERIMENTS.md "Durability: the fsync sweep"). The
// dominant term under SyncAlways is the per-batch fsync; SyncInterval
// amortizes it at the cost of a bounded-loss window; SyncOff leaves
// only the sequential log write.
func BenchmarkDurability(b *testing.B) {
	const batchSize = 1024
	arms := []struct {
		name string
		dur  func(dir string) Durability
	}{
		{"off", func(string) Durability { return Durability{} }},
		{"wal-always", func(dir string) Durability {
			return Durability{Dir: dir, Sync: SyncAlways}
		}},
		{"wal-interval", func(dir string) Durability {
			return Durability{Dir: dir, Sync: SyncInterval, SyncInterval: 10 * time.Millisecond}
		}},
		{"wal-off", func(dir string) Durability {
			return Durability{Dir: dir, Sync: SyncOff}
		}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			db, err := Open(Options{
				Workers:       2,
				CacheCapacity: 1 << 14,
				Durability:    arm.dur(b.TempDir()),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			batches := make([]*Batch, 8)
			for i := range batches {
				nb := NewBatch()
				for q := 0; q < batchSize; q++ {
					k := Key((i*batchSize + q*7) % (1 << 16))
					if q%4 == 0 {
						nb.Search(k)
					} else {
						nb.Insert(k, Value(q))
					}
				}
				batches[i] = nb
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				db.Run(batches[i%len(batches)])
			}
			busy := time.Since(start)
			b.StopTimer()
			if err := db.Err(); err != nil {
				b.Fatal(err)
			}
			if busy > 0 {
				b.ReportMetric(float64(batchSize*b.N)/busy.Seconds(), "qps")
			}
		})
	}
	// The log's size on a batch QSAT reduces: 16 384 queries, half of
	// them inserts, over a power law of θ = 2.0 (duplicate share ≈ 0.99,
	// above the cost gate's crossover, so the batch runs QSAT). The
	// record holds every define of the batch, not QSAT's survivors, so
	// log-B/update is where logging forgoes the reduction (DESIGN.md §7).
	b.Run("wal-off/zipf2", func(b *testing.B) {
		dir := b.TempDir()
		db, err := Open(Options{
			Workers:       2,
			CacheCapacity: 1 << 14,
			Durability:    Durability{Dir: dir, Sync: SyncOff},
		})
		if err != nil {
			b.Fatal(err)
		}
		z := rand.NewZipf(rand.New(rand.NewSource(5)), 2.0, 1, 1<<20)
		const n = 16384
		updates := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			nb := NewBatch()
			for q := 0; q < n; q++ {
				if k := Key(z.Uint64()); q%2 == 0 {
					nb.Search(k)
				} else {
					nb.Insert(k, Value(q))
					updates++
				}
			}
			b.StartTimer()
			db.Run(nb)
		}
		b.StopTimer()
		if err := db.Err(); err != nil {
			b.Fatal(err)
		}
		db.Close()
		entries, err := os.ReadDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		var bytes int64
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				b.Fatal(err)
			}
			bytes += info.Size()
		}
		b.ReportMetric(float64(bytes)/float64(updates), "log-B/update")
	})
}
