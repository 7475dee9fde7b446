package core

import (
	"time"

	"repro/internal/btree"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// engineMetrics caches the metric handles the engine records into after
// each batch. All handles are resolved once at engine construction, so
// the per-batch path does map-free atomic updates only. A nil
// *engineMetrics (metrics off) keeps ProcessBatch byte-identical to the
// uninstrumented build: the single nil check is the only overhead.
type engineMetrics struct {
	reg *metrics.Registry

	batchWall *metrics.Histogram
	stageNS   []*metrics.Histogram // indexed by stats.Stage

	batches     *metrics.Counter
	queries     *metrics.Counter
	remaining   *metrics.Counter
	inferred    *metrics.Counter
	fenceHits   *metrics.Counter
	splits      *metrics.Counter
	gapClaims   *metrics.Counter
	shifted     *metrics.Counter
	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter
	cacheFlush  *metrics.Counter
	cacheEvict  *metrics.Counter
	scanQueries *metrics.Counter
	scanRows    *metrics.Counter
	qsatSkipped *metrics.Counter
	modeSwitch  *metrics.Counter
	cacheDrains *metrics.Counter

	// leafOcc records per-leaf fill (entries * 1000 / capacity) when
	// RecordLayout is called; it is not touched on the batch path.
	leafOcc *metrics.Histogram
}

func newEngineMetrics(reg *metrics.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	m := &engineMetrics{
		reg:         reg,
		batchWall:   reg.Histogram("batch_wall_ns"),
		batches:     reg.Counter("batches_total"),
		queries:     reg.Counter("queries_total"),
		remaining:   reg.Counter("queries_remaining_total"),
		inferred:    reg.Counter("inferred_returns_total"),
		fenceHits:   reg.Counter("fence_hits_total"),
		splits:      reg.Counter("splits_total"),
		gapClaims:   reg.Counter("gap_claims_total"),
		shifted:     reg.Counter("shifted_slots_total"),
		cacheHits:   reg.Counter("cache_hits_total"),
		cacheMisses: reg.Counter("cache_misses_total"),
		cacheFlush:  reg.Counter("cache_flushes_total"),
		cacheEvict:  reg.Counter("cache_evictions_total"),
		scanQueries: reg.Counter("scan_queries_total"),
		scanRows:    reg.Counter("scan_rows_total"),
		qsatSkipped: reg.Counter("qsat_skipped_batches_total"),
		modeSwitch:  reg.Counter("cache_mode_switches_total"),
		cacheDrains: reg.Counter("cache_drains_total"),
		leafOcc:     reg.Histogram("leaf_occupancy_permille"),
	}
	for _, s := range stats.Stages() {
		m.stageNS = append(m.stageNS, reg.Histogram("stage_"+s.String()+"_ns"))
	}
	return m
}

// recordBatch folds one processed batch's stats block plus its measured
// wall time into the registry. The stage histograms record only stages
// that ran (Elapsed > 0), so e.g. org-mode runs show no qsat rows.
func (m *engineMetrics) recordBatch(st *stats.Batch, wall time.Duration) {
	m.batchWall.Observe(wall)
	m.batches.Add(1)
	m.queries.Add(int64(st.BatchSize))
	m.remaining.Add(int64(st.RemainingQueries))
	m.inferred.Add(int64(st.InferredReturns))
	m.fenceHits.Add(int64(st.FenceHits))
	m.splits.Add(int64(st.Splits))
	m.gapClaims.Add(int64(st.GapClaims))
	m.shifted.Add(int64(st.ShiftedSlots))
	m.cacheHits.Add(int64(st.CacheHits))
	m.cacheMisses.Add(int64(st.CacheMisses))
	m.cacheFlush.Add(int64(st.CacheFlushes))
	m.cacheEvict.Add(int64(st.CacheEvictions))
	m.scanQueries.Add(int64(st.ScanQueries))
	m.scanRows.Add(int64(st.ScanRows))
	m.qsatSkipped.Add(int64(st.QSATSkipped))
	m.modeSwitch.Add(int64(st.CacheModeSwitches))
	m.cacheDrains.Add(int64(st.CacheDrains))
	for _, s := range stats.Stages() {
		if d := st.Elapsed[s]; d > 0 {
			m.stageNS[s].Observe(d)
		}
	}
}

// recordLayout walks the tree's leaf chain and records each leaf's fill
// as entries*1000/capacity. The walk is O(#leaves), so it runs on
// demand (Engine.RecordLayoutMetrics), never on the batch path.
func (m *engineMetrics) recordLayout(t *btree.Tree) {
	t.VisitLeaves(func(entries, capacity int) {
		if capacity > 0 {
			m.leafOcc.Record(int64(entries) * 1000 / int64(capacity))
		}
	})
}
