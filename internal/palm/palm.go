// Package palm implements the latch-free, bulk-synchronous B+ tree batch
// query processor of Sewall et al. (PALM, VLDB'11) as described in
// Section II-B of the QTrans paper, the system QTrans integrates into.
//
// A batch is processed in the three stages of Fig. 3:
//
//	Stage 1: the (pre-sorted) batch is partitioned evenly across worker
//	         threads, which find the leaf covering each query's key in
//	         parallel, recording the root-to-leaf descent path.
//	Stage 2: queries are shuffled so that all queries to one leaf are
//	         handled by exactly one thread; threads evaluate their leaf
//	         groups in parallel (search answers, leaf inserts/deletes).
//	Stage 3: structural modifications propagate bottom-up: overflowing
//	         leaves are (multi-way) split and emptied leaves removed;
//	         the resulting child-replacement requests are shuffled by
//	         parent node, applied in parallel, and the process repeats
//	         per level until the root, which a single thread maintains.
//
// Because every node is written by at most one thread per superstep and
// supersteps are separated by barriers, no latches are needed.
//
// Deletions follow the relaxed policy of the paper's open-source
// baseline: nodes may become under-full, and only empty nodes are
// removed (see DESIGN.md §4.2). The tree therefore validates under
// btree.RelaxedFill.
package palm

import (
	"repro/internal/bsp"
	"repro/internal/btree"
	"repro/internal/keys"
	"repro/internal/stats"
)

// Config controls a Processor.
type Config struct {
	// Order is the B+ tree order; <= 0 selects btree.DefaultOrder.
	Order int
	// Workers is the BSP thread count; <= 0 selects GOMAXPROCS.
	Workers int
	// LoadBalance enables the prefix-sum balanced assignment of leaf
	// groups to threads (§V-A). When false, groups are dealt evenly by
	// count regardless of how many queries each holds — the ablation of
	// Fig. 13.
	LoadBalance bool
}

// Processor evaluates query batches against a B+ tree using the PALM
// BSP scheme. A Processor owns its tree; concurrent calls to
// ProcessBatch are not allowed (batches are the unit of concurrency).
type Processor struct {
	tree *btree.Tree
	pool *bsp.Pool
	cfg  Config

	// ownPool records whether Close should close the pool.
	ownPool bool

	// Per-batch scratch, reused across batches.
	groups  []leafGroup
	perW    []workerScratch
	reqs    []modRequest
	nextReq []modRequest
	assign  [][2]int    // Stage-2 group assignment
	counts  []int       // group-size prefix sums for load balancing
	runs    []parentRun // Stage-3 same-parent request runs

	// Stats for the most recent batch; never nil.
	batchStats *stats.Batch
}

// workerScratch holds per-worker intermediate state for one batch.
type workerScratch struct {
	groups    []leafGroup
	reqs      []modRequest
	paths     pathArena     // recycled root-to-leaf path snapshots
	children  []*btree.Node // applyToParent child-list rebuild scratch
	finder    finder        // Stage-1 path-reuse descent state
	mergeKeys []keys.Key    // merge-based leaf application scratch
	mergeVals []keys.Value
	leafKeys  []keys.Key // leaf compaction scratch (merge path)
	leafVals  []keys.Value
	sizeDelta int64
	leafOps   int64 // operations applied at the leaf level (Fig. 13)
	scanRows  int   // rows EvalScans wrote
	// Layout counters (stats.Batch Splits/GapClaims/ShiftedSlots).
	splits       int64
	gapClaims    int64
	shiftedSlots int64
	_            [4]int64 // pad to keep hot counters off shared cache lines
}

// pathArena recycles btree.Path snapshots across batches: each leaf
// group clones the descent path of its first query, and with fresh
// Clone calls those two slices per group dominated the allocation count
// of the whole batch. Arena entries keep their backing arrays, so after
// warm-up a snapshot costs two copies and zero allocations. A returned
// Path shares the arena entry's arrays, which stay valid until the next
// reset (the start of the next batch).
type pathArena struct {
	paths []btree.Path
	used  int
}

// reset recycles every entry for a new batch.
func (a *pathArena) reset() { a.used = 0 }

// clone snapshots p into the arena and returns it by value.
func (a *pathArena) clone(p *btree.Path) btree.Path {
	if a.used == len(a.paths) {
		a.paths = append(a.paths, btree.Path{})
	}
	dst := &a.paths[a.used]
	a.used++
	dst.Nodes = append(dst.Nodes[:0], p.Nodes...)
	dst.Slots = append(dst.Slots[:0], p.Slots...)
	return *dst
}

// leafGroup is a maximal run of same-leaf queries in the sorted batch.
type leafGroup struct {
	leaf *btree.Node
	path btree.Path // root-to-leaf internal path (shared per group)
	lo   int        // query range [lo, hi) in the sorted batch
	hi   int
}

// modRequest asks for parent.Children[slot] to be replaced by repl
// (empty repl = remove the child). level is the path level of parent
// (path.Nodes[level] == parent); level -1 denotes the root child
// replacement handled by the root step.
type modRequest struct {
	parent *btree.Node
	path   *btree.Path
	level  int
	slot   int
	repl   []*btree.Node
}

// New creates a Processor over a fresh empty tree. pool may be nil, in
// which case the Processor creates (and owns) one with cfg.Workers
// workers.
func New(cfg Config, pool *bsp.Pool) (*Processor, error) {
	tree, err := btree.New(cfg.Order)
	if err != nil {
		return nil, err
	}
	return NewWithTree(cfg, tree, pool), nil
}

// NewWithTree creates a Processor over an existing tree (e.g. one
// pre-loaded serially or restored from a snapshot). See New for pool
// semantics.
func NewWithTree(cfg Config, tree *btree.Tree, pool *bsp.Pool) *Processor {
	own := false
	if pool == nil {
		pool = bsp.NewPool(cfg.Workers)
		own = true
	}
	p := &Processor{
		tree:       tree,
		pool:       pool,
		cfg:        cfg,
		ownPool:    own,
		perW:       make([]workerScratch, pool.N()),
		batchStats: stats.NewBatch(pool.N()),
	}
	return p
}

// Close releases the Processor's pool if it owns one.
func (p *Processor) Close() {
	if p.ownPool {
		p.pool.Close()
	}
}

// Tree returns the underlying tree (e.g. for validation or scanning
// between batches).
func (p *Processor) Tree() *btree.Tree { return p.tree }

// Pool returns the BSP pool the processor runs on.
func (p *Processor) Pool() *bsp.Pool { return p.pool }

// Stats returns the timing/counter breakdown of the most recent batch.
func (p *Processor) Stats() *stats.Batch { return p.batchStats }

// ProcessBatch evaluates the batch with §II-A semantics equivalent to
// serial in-order evaluation, recording search results into rs (indexed
// by Query.Idx). qs is reordered in place (stable key sort).
func (p *Processor) ProcessBatch(qs []keys.Query, rs *keys.ResultSet) {
	p.processBatch(qs, rs, false)
}

// ProcessBatchSorted is ProcessBatch for a batch that is already stably
// key-sorted (§IV-E pre-sorting) — e.g. one whose sort ran in the
// engine's transform — so the internal sort is skipped.
func (p *Processor) ProcessBatchSorted(qs []keys.Query, rs *keys.ResultSet) {
	p.processBatch(qs, rs, true)
}

func (p *Processor) processBatch(qs []keys.Query, rs *keys.ResultSet, sorted bool) {
	st := p.batchStats
	st.Reset()
	st.BatchSize = len(qs)
	if len(qs) == 0 {
		return
	}

	if !sorted {
		sw := st.Timer(stats.StageSort)
		p.pool.RadixSortQueries(qs)
		sw.Stop()
	}

	sw := st.Timer(stats.StageFind)
	p.findLeaves(qs)
	sw.Stop()

	sw = st.Timer(stats.StageEvaluate)
	p.evaluate(qs, rs, false)
	sw.Stop()

	sw = st.Timer(stats.StageModify)
	p.restructure()
	sw.Stop()

	st.RemainingQueries = len(qs)
	p.finishStats()
}

// finishStats folds per-worker counters into the batch stats.
func (p *Processor) finishStats() {
	var delta int64
	for i := range p.perW {
		delta += p.perW[i].sizeDelta
		p.batchStats.LeafOps[i] += p.perW[i].leafOps
		p.batchStats.FenceHits += int(p.perW[i].finder.fenceHits)
		p.batchStats.Splits += int(p.perW[i].splits)
		p.batchStats.GapClaims += int(p.perW[i].gapClaims)
		p.batchStats.ShiftedSlots += int(p.perW[i].shiftedSlots)
		p.perW[i].sizeDelta = 0
		p.perW[i].leafOps = 0
		p.perW[i].finder.fenceHits = 0
		p.perW[i].splits = 0
		p.perW[i].gapClaims = 0
		p.perW[i].shiftedSlots = 0
	}
	if delta != 0 {
		p.tree.AddSize(int(delta))
	}
}

// findLeaves runs Stage 1: parallel leaf location over an even partition
// of the sorted batch, producing the global key-ordered leaf-group list
// in p.groups.
func (p *Processor) findLeaves(qs []keys.Query) {
	n := len(qs)
	for i := range p.perW {
		p.perW[i].groups = p.perW[i].groups[:0]
		p.perW[i].paths.reset()
		p.perW[i].finder.reset(p.tree)
	}
	p.pool.Run(func(tid int) {
		lo, hi := p.pool.Range(tid, n)
		w := &p.perW[tid]
		var cur *btree.Node
		for i := lo; i < hi; i++ {
			// The original design performs the leaf search for every
			// query in the batch (§V-A contrasts this with QTrans's
			// per-distinct-key FIND, which lives in findAndAnswer).
			// With path reuse the search usually collapses to a fence
			// check against the previous descent (kernels.go).
			leaf := w.finder.find(qs[i].Key)
			if leaf == cur && len(w.groups) > 0 {
				w.groups[len(w.groups)-1].hi = i + 1
				continue
			}
			cur = leaf
			w.groups = append(w.groups, leafGroup{leaf: leaf, path: w.paths.clone(&w.finder.path), lo: i, hi: i + 1})
		}
	})

	// Concatenate per-worker groups (already in global key order) and
	// merge boundary groups that landed on the same leaf.
	p.groups = p.groups[:0]
	for t := range p.perW {
		for _, g := range p.perW[t].groups {
			if len(p.groups) > 0 && p.groups[len(p.groups)-1].leaf == g.leaf {
				p.groups[len(p.groups)-1].hi = g.hi
			} else {
				p.groups = append(p.groups, g)
			}
		}
	}
}

// FindAndAnswerSearches is the QTrans fast path for batches whose
// remaining queries contain no defining ops after transformation: every
// query is a search, so Stage 1 both locates and evaluates, and Stages 2
// and 3 are skipped entirely (§VI-B: "QTrans handles all FIND queries in
// stage 1, avoiding the time consuming stage 2").
func (p *Processor) FindAndAnswerSearches(qs []keys.Query, rs *keys.ResultSet) {
	n := len(qs)
	for i := range p.perW {
		p.perW[i].finder.reset(p.tree)
	}
	p.pool.Run(func(tid int) {
		lo, hi := p.pool.Range(tid, n)
		w := &p.perW[tid]
		var leaf *btree.Node
		for i := lo; i < hi; i++ {
			if i == lo || qs[i].Key != qs[i-1].Key || leaf == nil {
				leaf = w.finder.find(qs[i].Key)
			}
			v, ok := btree.LeafFind(leaf, qs[i].Key)
			rs.Set(qs[i].Idx, v, ok)
			w.leafOps++
		}
	})
	p.finishStats()
}

// evaluate runs Stage 2: leaf groups are assigned to workers (balanced
// by query count when cfg.LoadBalance) and evaluated in parallel.
// answerDuringFind indicates searches were already answered in Stage 1
// (QTrans mode), so only defining queries remain in the groups.
func (p *Processor) evaluate(qs []keys.Query, rs *keys.ResultSet, answerDuringFind bool) {
	assign := p.assignGroups()
	for i := range p.perW {
		p.perW[i].reqs = p.perW[i].reqs[:0]
	}
	p.pool.Run(func(tid int) {
		glo, ghi := assign[tid][0], assign[tid][1]
		w := &p.perW[tid]
		for gi := glo; gi < ghi; gi++ {
			g := &p.groups[gi]
			p.evalGroup(g, qs, rs, w, answerDuringFind)
		}
	})

	// Gather modification requests in global key order.
	p.reqs = p.reqs[:0]
	for t := range p.perW {
		p.reqs = append(p.reqs, p.perW[t].reqs...)
	}
}

// assignGroups maps workers to contiguous group ranges. With load
// balancing, boundaries are chosen so each worker receives roughly equal
// numbers of queries (parallel prefix sum over group sizes, §V-A);
// without, groups are split evenly by count.
func (p *Processor) assignGroups() [][2]int {
	nw := p.pool.N()
	if cap(p.assign) < nw {
		p.assign = make([][2]int, nw)
	}
	assign := p.assign[:nw]
	ng := len(p.groups)
	if !p.cfg.LoadBalance {
		for t := 0; t < nw; t++ {
			lo, hi := bsp.SplitRange(t, nw, ng)
			assign[t] = [2]int{lo, hi}
		}
		return assign
	}
	if cap(p.counts) < ng {
		p.counts = make([]int, ng)
	}
	counts := p.counts[:ng]
	for i, g := range p.groups {
		counts[i] = g.hi - g.lo
	}
	// After the scan, counts[i] is the number of queries before group i.
	total := p.pool.ParallelExclusiveScan(counts)
	// Worker t takes the contiguous group range whose query prefix ends
	// by (t+1)*total/nw, so per-worker query loads differ by at most one
	// group's size (§V-A: groups cannot be split across threads).
	gi := 0
	for t := 0; t < nw; t++ {
		target := (t + 1) * total / nw
		lo := gi
		for gi < ng && prefixEnd(counts, gi, total) <= target {
			gi++
		}
		if t == nw-1 {
			gi = ng
		}
		assign[t] = [2]int{lo, gi}
	}
	return assign
}

// prefixEnd returns the exclusive prefix sum just after group i given
// the scanned counts array (counts[i] = prefix before i).
func prefixEnd(counts []int, i, total int) int {
	if i+1 < len(counts) {
		return counts[i+1]
	}
	return total
}

// parentOf returns the deepest node of the path (the leaf's parent), or
// nil when the leaf is the root.
func parentOf(path *btree.Path) *btree.Node {
	if path.Len() == 0 {
		return nil
	}
	return path.Nodes[path.Len()-1]
}

// slotOf returns the child slot taken at the deepest path level.
func slotOf(path *btree.Path) int {
	if path.Len() == 0 {
		return 0
	}
	return path.Slots[path.Len()-1]
}
