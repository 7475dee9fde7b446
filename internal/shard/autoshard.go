package shard

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/keys"
	"repro/internal/metrics"
)

// Traffic-aware autosharding (DESIGN.md §13): a background controller
// watches the heat histogram the splitter feeds (heat.go), recomputes
// traffic-weighted shard boundaries, and migrates keys between shards
// in small bounded slices — each slice moved while the controller holds
// the scheduling gate exclusively, i.e. exactly at a batch boundary, so
// serving never pauses longer than one inter-batch gap (Rebalance in
// rebalance.go is a thin loop over the same bounded moves). The shard
// count is fixed for the engine's life: like the paper's §V-A
// partitioning, load is balanced by moving boundaries, never by adding
// or removing shards.
//
// Migration operates strictly below the durability layer: moved pairs
// are written with tree-level Insert/Delete, never through the commit
// hook. Logging migration traffic would be wrong twice over — a replay
// would re-apply "deletes" of keys that merely changed shards, and the
// WAL's per-shard parts would desynchronize from routed batches. The
// WAL records queries, which are shard-agnostic; recovery replays them
// through the then-current routing, so boundary placement is free to
// differ across restarts.
//
// Cache invariant: a key's cache entry lives only in the shard that
// currently owns the key. Every bounded move drains the moved range
// from the donor's cache (flushing dirty state into the donor tree
// before it is scanned) and, defensively, from the receiver's. Without
// the drain a clean resident entry in the old owner could serve a stale
// value if the key range ever moved back.

// AutoshardConfig configures the controller. The zero value disables it
// entirely — no heat map, no controller goroutine, routing hot path
// byte- and alloc-identical to autoshard-less builds.
type AutoshardConfig struct {
	// Enabled turns the controller on (requires Shards > 1).
	Enabled bool
	// Buckets is the heat histogram resolution (default 256). More
	// buckets localize traffic more precisely at 64 B/bucket.
	Buckets int
	// DecayShift sets the per-batch EWMA decay: every bucket loses
	// value>>DecayShift each batch (default 3, i.e. 1/8 — a bucket
	// receiving r queries/batch converges to 8r).
	DecayShift uint
	// Interval is the background controller period. 0 means the default
	// (50ms); negative disables the background goroutine so the
	// controller only acts on explicit AutoshardStep calls.
	Interval time.Duration
	// MaxStep bounds the pairs migrated per controller step (default
	// 4096) — the unit of non-stop-the-world migration.
	MaxStep int
	// MinHeat is the total histogram heat below which the controller
	// idles (default 256): no boundary chasing on traffic too thin to
	// measure.
	MinHeat int64
}

// withDefaults fills unset fields; Enabled passes through.
func (c AutoshardConfig) withDefaults() AutoshardConfig {
	if c.Buckets <= 0 {
		c.Buckets = 256
	}
	if c.DecayShift == 0 {
		c.DecayShift = 3
	}
	if c.Interval == 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.MaxStep <= 0 {
		c.MaxStep = 4096
	}
	if c.MinHeat <= 0 {
		c.MinHeat = 256
	}
	return c
}

// moveImbalanceFloor is the imbalance (max shard heat / mean) below
// which boundary moves are not worth their migration traffic.
const moveImbalanceFloor = 1.05

// autoController holds the controller's policy state. Its scratch is
// touched only from step(), which runs under the scheduling gate's
// exclusive lock (or, gate-less, under the engine's single-caller
// contract).
type autoController struct {
	e   *Engine
	cfg AutoshardConfig
	met *autoMetrics // nil when metrics are off

	// scratch reused across steps.
	buckets []int64
	share   []float64

	// background loop lifecycle.
	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

func newAutoController(e *Engine, cfg AutoshardConfig) *autoController {
	return &autoController{
		e:       e,
		cfg:     cfg,
		met:     newAutoMetrics(e.cfg.Engine.Metrics, len(e.shards)),
		buckets: make([]int64, cfg.Buckets),
		share:   make([]float64, len(e.shards)),
	}
}

// AutoshardReport summarizes one controller step.
type AutoshardReport struct {
	// Imbalance is the observed max-shard-heat/mean ratio (0 when the
	// controller idled).
	Imbalance float64
	// Moved is the number of pairs migrated by this step.
	Moved int
	// Idle is true when total heat was below MinHeat and nothing was
	// examined.
	Idle bool
}

// AutoshardStep runs one controller step at a batch boundary: it takes
// the scheduling gate exclusively (waiting out every in-flight batch),
// makes at most one boundary move of at most MaxStep pairs, and
// releases the gate. No-op when autoshard is off. Without a gate
// installed the caller must not run it concurrently with batch
// processing.
func (e *Engine) AutoshardStep() AutoshardReport {
	if e.auto == nil {
		return AutoshardReport{}
	}
	if e.gate != nil {
		e.gate.Lock()
		defer e.gate.Unlock()
	}
	return e.auto.step()
}

// StartAutoshard launches the background controller loop (one
// AutoshardStep per cfg.Interval). No-op when autoshard is off, the
// interval is negative (manual stepping), or the loop already runs.
func (e *Engine) StartAutoshard() {
	if e.auto == nil || e.auto.cfg.Interval <= 0 {
		return
	}
	e.auto.start()
}

// StopAutoshard stops the background loop and waits for it to exit.
// Safe to call multiple times and when never started.
func (e *Engine) StopAutoshard() {
	if e.auto != nil {
		e.auto.stopBackground()
	}
}

func (a *autoController) start() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stop != nil {
		return
	}
	a.stop = make(chan struct{})
	a.done = make(chan struct{})
	go a.loop(a.stop, a.done)
}

func (a *autoController) loop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			a.e.AutoshardStep()
		}
	}
}

func (a *autoController) stopBackground() {
	a.mu.Lock()
	stop, done := a.stop, a.done
	a.stop, a.done = nil, nil
	a.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// step runs one controller decision: once the histogram holds MinHeat
// and the hottest shard exceeds moveImbalanceFloor times the mean, it
// moves the boundary farthest from its traffic-weighted target by at
// most MaxStep pairs. Heat that no boundary move can divide (it sits
// inside one bucket) leaves every boundary dead-banded, and the layout
// holds.
func (a *autoController) step() AutoshardReport {
	e := a.e
	a.met.stepped()
	var rep AutoshardReport

	total := e.heat.load(a.buckets)
	if total < a.cfg.MinHeat {
		rep.Idle = true
		a.met.publish(0, nil)
		return rep
	}

	share := a.shardHeat()
	maxHeat := 0.0
	for _, v := range share {
		maxHeat = math.Max(maxHeat, v)
	}
	rep.Imbalance = maxHeat / (float64(total) / float64(len(share)))

	if rep.Imbalance > moveImbalanceFloor {
		if i, target, ok := a.worstBoundary(total); ok {
			rep.Moved = e.moveBoundary(i, target, a.cfg.MaxStep, true)
			a.met.moved(rep.Moved)
		}
	}
	a.met.publish(rep.Imbalance, share)
	return rep
}

// shardHeat attributes the histogram to shards, splitting a bucket that
// straddles a boundary by linear overlap fraction, and returns the
// per-shard totals (scratch, valid until the next step).
func (a *autoController) shardHeat() []float64 {
	e := a.e
	h := e.heat
	share := a.share
	for i := range share {
		share[i] = 0
	}
	for b, v := range a.buckets {
		if v <= 0 {
			continue
		}
		bl := uint64(h.lowOf(b))
		bh := bl + h.width()
		if b == h.buckets-1 || bh < bl {
			// Last bucket also absorbs keys above keyMax; treat it as
			// reaching the top of the key space.
			bh = math.MaxUint64
		}
		s1 := shardOf(e.bounds, keys.Key(bl))
		s2 := shardOf(e.bounds, keys.Key(bh-1))
		if s1 == s2 {
			share[s1] += float64(v)
			continue
		}
		denom := float64(bh - bl)
		for s := s1; s <= s2; s++ {
			lo := bl
			if s > s1 {
				lo = uint64(e.bounds[s-1])
			}
			hi := bh
			if s < s2 {
				hi = uint64(e.bounds[s])
			}
			share[s] += float64(v) * float64(hi-lo) / denom
		}
	}
	return share
}

// cumAt returns the histogram heat accumulated strictly below key k
// (linear interpolation inside k's bucket).
func (a *autoController) cumAt(k keys.Key) float64 {
	h := a.e.heat
	b := h.bucketOf(k)
	cum := 0.0
	for j := 0; j < b; j++ {
		if v := a.buckets[j]; v > 0 {
			cum += float64(v)
		}
	}
	if v := a.buckets[b]; v > 0 {
		cum += float64(v) * float64(uint64(k)-uint64(h.lowOf(b))) / float64(h.width())
	}
	return cum
}

// keyAtCum returns the key at which cumulative heat reaches goal
// (linear interpolation inside the crossing bucket).
func (a *autoController) keyAtCum(goal float64) keys.Key {
	h := a.e.heat
	cum := 0.0
	for b, v := range a.buckets {
		if v <= 0 {
			continue
		}
		if cum+float64(v) >= goal {
			frac := (goal - cum) / float64(v)
			off := uint64(frac * float64(h.width()))
			if off >= h.width() {
				off = h.width() - 1
			}
			return h.lowOf(b) + keys.Key(off)
		}
		cum += float64(v)
	}
	return keys.Key(math.MaxUint64)
}

// worstBoundary picks the split point farthest (in heat terms) from its
// traffic-weighted target — the key where cumulative heat would be
// exactly (i+1)/n of the total — and returns its index and target.
// Boundaries within one bucket width of their target are in the
// deadband and left alone, as are layouts whose worst heat error is
// under 5% of a fair share; ok is false when every boundary is settled.
func (a *autoController) worstBoundary(total int64) (idx int, target keys.Key, ok bool) {
	e := a.e
	n := len(e.shards)
	width := e.heat.width()
	bestErr := 0.0
	idx = -1
	for i := 0; i < n-1; i++ {
		goal := float64(total) * float64(i+1) / float64(n)
		t := a.keyAtCum(goal)
		cur := e.bounds[i]
		var d uint64
		if t > cur {
			d = uint64(t - cur)
		} else {
			d = uint64(cur - t)
		}
		if d < width {
			continue
		}
		if err := math.Abs(a.cumAt(cur) - goal); err > bestErr {
			idx, target, bestErr = i, t, err
		}
	}
	if idx < 0 || bestErr < 0.05*float64(total)/float64(n) {
		return 0, 0, false
	}
	return idx, target, true
}

// moveBoundary shifts bounds[i] — the split point between shards i and
// i+1 — toward target, migrating at most budget pairs between the two
// trees, and returns the pairs migrated. The bound only ever moves past
// keys that were actually migrated, so routing stays exact mid-journey;
// when the range holds more than budget pairs the bound lands on the
// first key left behind and later calls continue from there. When warm
// is set the moved pairs are re-admitted into the receiver's cache as
// clean entries: traffic-weighted moves shift the hottest range in the
// system, and dropping it from both caches would serve misses until
// the next write to each key. The count-based Rebalance passes
// warm=false so cold keys never evict hot cache entries. The caller must hold the gate exclusively (or otherwise
// exclude batch processing). Also used by Rebalance (rebalance.go).
func (e *Engine) moveBoundary(i int, target keys.Key, budget int, warm bool) int {
	b := e.bounds[i]
	if budget <= 0 || target == b {
		return 0
	}
	// Clamp to the neighboring split points so bounds stay
	// non-decreasing and only shards i and i+1 exchange keys.
	if i > 0 && target < e.bounds[i-1] {
		target = e.bounds[i-1]
	}
	if i < len(e.bounds)-1 && target > e.bounds[i+1] {
		target = e.bounds[i+1]
	}
	if target == b {
		return 0
	}
	var moved int
	var newBound keys.Key
	if target > b {
		moved, newBound = e.migrateUp(i, b, target, budget, warm)
	} else {
		moved, newBound = e.migrateDown(i, target, b, budget, warm)
	}
	if newBound != b {
		// Copy-on-write keeps any bounds slice captured by a past
		// split immutable.
		nb := append([]keys.Key(nil), e.bounds...)
		nb[i] = newBound
		e.bounds = nb
	}
	if moved > 0 {
		e.shst.RecordMove(moved)
	}
	return moved
}

// migrateUp raises bounds[i]: shard i grows, taking [lo, hi) from shard
// i+1, lowest keys first. Returns pairs moved and the new bound (hi
// when the whole range fit in budget, else the first key not moved).
func (e *Engine) migrateUp(i int, lo, hi keys.Key, budget int, warm bool) (int, keys.Key) {
	donor, recv := e.shards[i+1], e.shards[i]
	donor.DrainCacheRange(lo, hi)
	recv.DrainCacheRange(lo, hi)
	dt := donor.Processor().Tree()
	ks := make([]keys.Key, 0, budget+1)
	vs := make([]keys.Value, 0, budget+1)
	dt.ScanRange(lo, hi, func(k keys.Key, v keys.Value) bool {
		ks = append(ks, k)
		vs = append(vs, v)
		return len(ks) <= budget
	})
	newBound := hi
	if len(ks) > budget {
		newBound = ks[budget]
		ks, vs = ks[:budget], vs[:budget]
	}
	rt := recv.Processor().Tree()
	for j := range ks {
		rt.Insert(ks[j], vs[j])
		dt.Delete(ks[j])
	}
	if warm {
		recv.WarmPairs(ks, vs)
	}
	return len(ks), newBound
}

// migrateDown lowers bounds[i]: shard i shrinks, giving [lo, hi) to
// shard i+1, highest keys first — the bound must cover every key that
// moved, so when the range exceeds budget only its top budget keys move
// and the bound lands on the smallest of them (tracked with a ring
// buffer over the scan; the tree cannot iterate backwards).
func (e *Engine) migrateDown(i int, lo, hi keys.Key, budget int, warm bool) (int, keys.Key) {
	donor, recv := e.shards[i], e.shards[i+1]
	donor.DrainCacheRange(lo, hi)
	recv.DrainCacheRange(lo, hi)
	dt := donor.Processor().Tree()
	rk := make([]keys.Key, budget)
	rv := make([]keys.Value, budget)
	count := 0
	dt.ScanRange(lo, hi, func(k keys.Key, v keys.Value) bool {
		rk[count%budget] = k
		rv[count%budget] = v
		count++
		return true
	})
	if count == 0 {
		return 0, lo
	}
	var ks []keys.Key
	var vs []keys.Value
	newBound := lo
	if count <= budget {
		ks, vs = rk[:count], rv[:count]
	} else {
		start := count % budget // ring position of the smallest retained key
		ks = make([]keys.Key, 0, budget)
		vs = make([]keys.Value, 0, budget)
		ks = append(append(ks, rk[start:]...), rk[:start]...)
		vs = append(append(vs, rv[start:]...), rv[:start]...)
		newBound = ks[0]
	}
	rt := recv.Processor().Tree()
	for j := range ks {
		rt.Insert(ks[j], vs[j])
		dt.Delete(ks[j])
	}
	if warm {
		recv.WarmPairs(ks, vs)
	}
	return len(ks), newBound
}

// autoMetrics is the nil-safe metrics handle bundle for the controller
// (mirrors shardMetrics): counters for migration volume, gauges for the
// imbalance and per-shard heat (one per shard, built once).
type autoMetrics struct {
	imb      *metrics.Gauge
	moves    *metrics.Counter
	migrated *metrics.Counter
	steps    *metrics.Counter
	heat     []*metrics.Gauge
}

func newAutoMetrics(reg *metrics.Registry, shards int) *autoMetrics {
	if reg == nil {
		return nil
	}
	m := &autoMetrics{
		imb:      reg.Gauge("autoshard_imbalance_permille"),
		moves:    reg.Counter("autoshard_moves_total"),
		migrated: reg.Counter("autoshard_migrated_total"),
		steps:    reg.Counter("autoshard_steps_total"),
		heat:     make([]*metrics.Gauge, shards),
	}
	for i := range m.heat {
		m.heat[i] = reg.Gauge(fmt.Sprintf("autoshard_heat_shard_%d", i))
	}
	return m
}

func (m *autoMetrics) stepped() {
	if m != nil {
		m.steps.Add(1)
	}
}

func (m *autoMetrics) moved(pairs int) {
	if m == nil {
		return
	}
	m.moves.Add(1)
	if pairs > 0 {
		m.migrated.Add(int64(pairs))
	}
}

// publish sets the imbalance and per-shard heat gauges; a nil share (an
// idle step) zeroes the heat gauges.
func (m *autoMetrics) publish(imb float64, share []float64) {
	if m == nil {
		return
	}
	m.imb.Set(int64(imb * 1000))
	for i, g := range m.heat {
		v := 0.0
		if share != nil {
			v = share[i]
		}
		g.Set(int64(v))
	}
}
