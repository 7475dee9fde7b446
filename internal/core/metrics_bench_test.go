package core

import (
	"fmt"
	"testing"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/palm"
)

// steadyState builds an engine preloaded with n keys plus a reusable
// search-only batch over them: repeated ProcessBatch calls neither grow
// the tree nor dirty the cache, so per-batch work is pure measurement.
func steadyState(tb testing.TB, mode Mode, reg *metrics.Registry, n int) (*Engine, []keys.Query, *keys.ResultSet) {
	tb.Helper()
	eng, err := NewEngine(EngineConfig{
		Mode:          mode,
		Palm:          palm.Config{Order: 64, Workers: 2},
		CacheCapacity: 256,
		Metrics:       reg,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)

	load := make([]keys.Query, n)
	for i := range load {
		load[i] = keys.Insert(keys.Key(i*7), keys.Value(i))
	}
	keys.Number(load)
	rs := keys.NewResultSet(n)
	eng.ProcessBatch(load, rs)

	qs := make([]keys.Query, n)
	for i := range qs {
		qs[i] = keys.Search(keys.Key(i * 7))
	}
	keys.Number(qs)
	return eng, qs, rs
}

// TestMetricsOffZeroAllocsPerBatch is the alloc half of the
// zero-overhead contract: with EngineConfig.Metrics nil, the public
// ProcessBatch must allocate exactly as much as the raw internal batch
// path — the nil gate adds 0 allocs/batch. (The raw path itself
// allocates a handful of stage closures per pool.Run; that baseline
// predates instrumentation and is measured, not assumed.) Checked for
// both the plain PALM path and the fully-optimized one, on a batch
// above inlineBatch and on one below it.
func TestMetricsOffZeroAllocsPerBatch(t *testing.T) {
	for _, m := range []struct {
		name string
		mode Mode
	}{{"org", Original}, {"inter", IntraInter}} {
		t.Run(m.name, func(t *testing.T) {
			for _, n := range []int{inlineBatch / 16, 512} {
				t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
					eng, qs, rs := steadyState(t, m.mode, nil, n)
					// Warm any lazily-grown internal buffers out of the
					// measurement.
					for i := 0; i < 3; i++ {
						rs.Reset(len(qs))
						eng.ProcessBatch(qs, rs)
					}
					raw := testing.AllocsPerRun(20, func() {
						rs.Reset(len(qs))
						eng.processBatch(qs, rs)
					})
					wrapped := testing.AllocsPerRun(20, func() {
						rs.Reset(len(qs))
						eng.ProcessBatch(qs, rs)
					})
					if wrapped != raw {
						t.Errorf("metrics-off ProcessBatch allocates %.1f/batch, raw path %.1f — gate adds %.1f, want 0",
							wrapped, raw, wrapped-raw)
					}
				})
			}
		})
	}
}

// BenchmarkMetricsOverhead measures the cost Options.Metrics adds per
// batch, for the plain PALM path (org) and the fully-optimized one
// (inter). Compare off vs on within a mode:
//
//	go test -run=XXX -bench=BenchmarkMetricsOverhead -benchmem ./internal/core
func BenchmarkMetricsOverhead(b *testing.B) {
	const n = 4096
	for _, m := range []struct {
		name string
		mode Mode
	}{{"org", Original}, {"inter", IntraInter}} {
		for _, metered := range []bool{false, true} {
			var reg *metrics.Registry
			state := "off"
			if metered {
				reg = metrics.New()
				state = "on"
			}
			b.Run(fmt.Sprintf("%s/metrics=%s", m.name, state), func(b *testing.B) {
				eng, qs, rs := steadyState(b, m.mode, reg, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rs.Reset(len(qs))
					eng.ProcessBatch(qs, rs)
				}
			})
		}
	}
}
