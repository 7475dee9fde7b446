// Package keys defines the shared intermediate representation for B+ tree
// query processing: keys, values, query operations, query sequences, and
// per-query results.
//
// Every other package in this repository (the B+ tree substrate, the PALM
// batch processor, the QTrans query-sequence optimizer, the workload
// generators and the experiment harness) speaks this vocabulary, mirroring
// the query semantics of Section II-A of the paper:
//
//	I(key, v): insert key with value v, or update the value if key exists.
//	S(key):    return the value of key, or null if absent.
//	D(key):    remove key if present.
//
// Only S returns a result; I and D mutate the tree.
package keys

import (
	"fmt"
	"sort"
)

// Key is a B+ tree key. The paper indexes 64-bit integer keys (geolocation
// cell ids, YCSB record ids); uint64 covers all evaluated datasets.
type Key uint64

// Value is the payload associated with a key.
type Value uint64

// Op is the kind of a B+ tree query.
type Op uint8

// The three basic query types of Section II-A, plus the two richer
// query types layered on by the QSAT range/RMW extension: a half-open
// range scan and an atomic read-modify-write.
const (
	// OpSearch is S(key): a read-only lookup ("use" in QUD terms).
	OpSearch Op = iota
	// OpInsert is I(key, v): insert-or-update ("define" in QUD terms).
	OpInsert
	// OpDelete is D(key): remove-if-present ("define" in QUD terms).
	OpDelete
	// OpScan is R[lo, hi): return all present (key, value) pairs with
	// lo <= key < hi in ascending key order, optionally truncated to
	// the first `limit` rows. A scan is a pure "use" over every key in
	// its range, so it fences reordering of point writes that fall
	// inside the range.
	OpScan
	// OpRMW is an atomic read-transform-write on one key. It is both a
	// "use" (the result reports the pre-state) and a "define" (the
	// post-state is written), so it anchors QUD chains on both sides.
	OpRMW
)

// RMWKind selects the transform applied by an OpRMW query.
type RMWKind uint8

const (
	// RMWAdd sets key = old + delta, treating an absent key as 0. The
	// result reports (old value, whether the key existed before). The
	// key is always present afterwards.
	RMWAdd RMWKind = iota
	// RMWSetIfAbsent inserts the operand only when the key is absent.
	// The result reports (old value, whether the key existed before);
	// an existing value is left untouched.
	RMWSetIfAbsent
)

// String implements fmt.Stringer using the paper's notation.
func (o Op) String() string {
	switch o {
	case OpSearch:
		return "S"
	case OpInsert:
		return "I"
	case OpDelete:
		return "D"
	case OpScan:
		return "R"
	case OpRMW:
		return "M"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// ValidOps is the single source of truth for the set of wire-visible
// operations. Decoders (trace files, WAL replay) validate op bytes
// against this table instead of hand-listing constants, so adding an
// op here is the only change they need.
var ValidOps = [...]Op{OpSearch, OpInsert, OpDelete, OpScan, OpRMW}

var validOpTable = func() [256]bool {
	var t [256]bool
	for _, o := range ValidOps {
		t[o] = true
	}
	return t
}()

// Valid reports whether o is one of ValidOps.
func (o Op) Valid() bool { return validOpTable[o] }

// IsDefining reports whether the operation defines B+ tree state
// (insert/delete/RMW) as opposed to only using it (search/scan). This
// is the define/use classification driving the QUD-chain analysis of
// §IV-B; note OpRMW is *also* a use — see Op comment.
func (o Op) IsDefining() bool { return o == OpInsert || o == OpDelete || o == OpRMW }

// Query is one element of a query sequence.
//
// Idx records the query's position in the original (pre-transformation)
// sequence so that values inferred by QTrans can be routed back to the
// issuer even after elimination and reordering.
type Query struct {
	Key   Key
	Value Value // insert value; RMW operand (delta / set value); scan row limit (0 = unlimited)
	Key2  Key   // scan exclusive upper bound (meaningful only for OpScan)
	Idx   int32 // position in the original batch
	Op    Op
	RMW   RMWKind // transform kind (meaningful only for OpRMW)
	// LeafAnswer marks a surviving search that QSAT could not answer
	// from the pre-batch tree state because a surviving RMW on the same
	// key precedes it in batch order: Stage 2 must answer it at the
	// leaf, after applying that RMW, instead of Stage 1.
	LeafAnswer bool
}

// String renders the query in the paper's notation, e.g. "I(7,42)@3".
func (q Query) String() string {
	switch q.Op {
	case OpInsert:
		return fmt.Sprintf("I(%d,%d)@%d", q.Key, q.Value, q.Idx)
	case OpDelete:
		return fmt.Sprintf("D(%d)@%d", q.Key, q.Idx)
	case OpScan:
		if q.Value != 0 {
			return fmt.Sprintf("R[%d,%d)#%d@%d", q.Key, q.Key2, q.Value, q.Idx)
		}
		return fmt.Sprintf("R[%d,%d)@%d", q.Key, q.Key2, q.Idx)
	case OpRMW:
		if q.RMW == RMWSetIfAbsent {
			return fmt.Sprintf("M?(%d,%d)@%d", q.Key, q.Value, q.Idx)
		}
		return fmt.Sprintf("M+(%d,%d)@%d", q.Key, q.Value, q.Idx)
	default:
		return fmt.Sprintf("S(%d)@%d", q.Key, q.Idx)
	}
}

// Search constructs a search query.
func Search(k Key) Query { return Query{Op: OpSearch, Key: k} }

// Insert constructs an insert/update query.
func Insert(k Key, v Value) Query { return Query{Op: OpInsert, Key: k, Value: v} }

// Delete constructs a delete query.
func Delete(k Key) Query { return Query{Op: OpDelete, Key: k} }

// Scan constructs a range scan over [lo, hi) returning at most limit
// rows (limit 0 = unlimited).
func Scan(lo, hi Key, limit Value) Query {
	return Query{Op: OpScan, Key: lo, Key2: hi, Value: limit}
}

// AddDelta constructs an RMW that atomically sets key = old + delta
// (absent keys read as 0) and reports the old state.
func AddDelta(k Key, delta Value) Query {
	return Query{Op: OpRMW, RMW: RMWAdd, Key: k, Value: delta}
}

// SetIfAbsent constructs an RMW that atomically inserts v only when k
// is absent and reports the old state.
func SetIfAbsent(k Key, v Value) Query {
	return Query{Op: OpRMW, RMW: RMWSetIfAbsent, Key: k, Value: v}
}

// Number assigns Idx = position to every query in qs, in place, and
// returns qs for chaining. Call it once on a freshly assembled batch
// before handing it to a processor.
func Number(qs []Query) []Query {
	for i := range qs {
		qs[i].Idx = int32(i)
	}
	return qs
}

// Result is the outcome of one search, scan, or RMW query. Insert and
// delete queries produce no Result (their effect is observable only
// through the tree).
//
//   - OpSearch: Value/Found report the looked-up state.
//   - OpRMW: Value/Found report the key's state *before* the transform.
//   - OpScan: Value is the row count and Found is rowcount > 0; the
//     rows themselves live in the ResultSet's scan storage.
type Result struct {
	Value Value
	Found bool
}

// KV is one row of a range-scan result.
type KV struct {
	Key   Key
	Value Value
}

// RowSlab is append-only scan-row storage for one writer: a scan's
// rows are Appended and then sealed with Finish, which returns them as
// one contiguous slice. Sealed rows never move — when the current chunk
// fills up it is left to the scans that point into it and only the
// unsealed scan is carried into a fresh chunk — so a slab costs about
// the rows it holds, not the several-fold copies of a growing slice.
// After a Reset the slab is one chunk sized for what the last batch
// used; a reused ResultSet stops allocating once its batches stop
// growing.
type RowSlab struct {
	rows  []KV // current chunk; rows[open:] is the unsealed scan
	open  int
	spilt int // rows left in earlier chunks since the last reset
}

// Append adds one row to the unsealed scan.
func (s *RowSlab) Append(kv KV) {
	if len(s.rows) == cap(s.rows) {
		s.grow(1)
	}
	s.rows = append(s.rows, kv)
}

// AppendAll adds rows to the unsealed scan.
func (s *RowSlab) AppendAll(rows []KV) {
	if cap(s.rows)-len(s.rows) < len(rows) {
		s.grow(len(rows))
	}
	s.rows = append(s.rows, rows...)
}

// Len returns the number of rows in the unsealed scan.
func (s *RowSlab) Len() int { return len(s.rows) - s.open }

// Rows returns the number of rows the slab has taken since its last
// reset, sealed or not.
func (s *RowSlab) Rows() int { return s.spilt + len(s.rows) }

// Finish seals the unsealed scan and returns its rows, clipped to their
// own capacity. They stay valid until the owning ResultSet is Reset.
func (s *RowSlab) Finish() []KV {
	rows := s.rows[s.open:len(s.rows):len(s.rows)]
	s.open = len(s.rows)
	return rows
}

// grow starts a chunk with room for the unsealed scan plus n more rows.
func (s *RowSlab) grow(n int) {
	part := s.rows[s.open:]
	s.spilt += s.open
	s.rows = append(make([]KV, 0, max(1024, 2*cap(s.rows), len(part)+n)), part...)
	s.open = 0
}

func (s *RowSlab) reset() {
	if s.spilt > 0 { // one chunk next time, with a quarter to spare
		s.rows = make([]KV, 0, (s.spilt+len(s.rows))*5/4)
	}
	s.rows, s.open, s.spilt = s.rows[:0], 0, 0
}

// ResultSet collects search results for a batch, indexed by Query.Idx.
// Slots belonging to non-search queries stay zero and are ignored.
// Scan rows are held in a lazily sized side table so that scan-free
// batches pay nothing for the feature; the table and the row slabs
// behind it keep their capacity across Reset.
type ResultSet struct {
	res   []Result
	valid []bool
	scans [][]KV    // len 0 until EnsureScans
	slabs []RowSlab // row storage, one slab per concurrent writer
}

// NewResultSet returns a ResultSet with capacity for a batch of n queries.
func NewResultSet(n int) *ResultSet {
	return &ResultSet{res: make([]Result, n), valid: make([]bool, n)}
}

// Reset resizes the set for a batch of n queries and clears all slots.
func (rs *ResultSet) Reset(n int) {
	rs.scans = rs.scans[:0]
	for i := range rs.slabs {
		rs.slabs[i].reset()
	}
	if cap(rs.res) < n {
		rs.res = make([]Result, n)
		rs.valid = make([]bool, n)
		return
	}
	rs.res = rs.res[:n]
	rs.valid = rs.valid[:n]
	for i := range rs.res {
		rs.res[i] = Result{}
		rs.valid[i] = false
	}
}

// Len returns the batch size the set was prepared for.
func (rs *ResultSet) Len() int { return len(rs.res) }

// Set records the result for the search query with original index idx.
// Concurrent calls are safe as long as every idx is written by exactly
// one goroutine, which the BSP shuffles guarantee.
func (rs *ResultSet) Set(idx int32, v Value, found bool) {
	rs.res[idx] = Result{Value: v, Found: found}
	rs.valid[idx] = true
}

// Get returns the result recorded for original index idx. ok is false if
// no result was recorded (e.g. the query was not a search).
func (rs *ResultSet) Get(idx int32) (r Result, ok bool) {
	if int(idx) >= len(rs.res) || !rs.valid[idx] {
		return Result{}, false
	}
	return rs.res[idx], true
}

// EnsureScans sizes the scan side table for the current batch. Call it
// from a single goroutine before any parallel scan evaluation: SetScan
// does not size the table itself, so concurrent SetScan calls on
// distinct indexes stay race-free.
func (rs *ResultSet) EnsureScans() {
	n := len(rs.res)
	if len(rs.scans) == n {
		return
	}
	if cap(rs.scans) < n {
		rs.scans = make([][]KV, n)
	}
	rs.scans = rs.scans[:n]
	clear(rs.scans) // rows of the batch before the last Reset
}

// ScanSlabs returns the set's row storage sized for n concurrent
// writers; writer w builds the rows it hands to SetScan in slabs[w].
// Call it from a single goroutine before the writers start; a later
// call with a larger n may move the slabs, so writers must not hold the
// previous return across it.
func (rs *ResultSet) ScanSlabs(n int) []RowSlab {
	for len(rs.slabs) < n {
		rs.slabs = append(rs.slabs, RowSlab{})
	}
	return rs.slabs
}

// SetScan records the completed row set for the scan with original
// index idx and marks the slot answered: the point Result becomes
// (rowcount, rowcount > 0). The table must have been sized by
// EnsureScans first.
func (rs *ResultSet) SetScan(idx int32, rows []KV) {
	rs.scans[idx] = rows
	rs.res[idx] = Result{Value: Value(len(rows)), Found: len(rows) > 0}
	rs.valid[idx] = true
}

// AppendScan appends rows to the scan result being assembled at idx
// (used by the shard merger to concatenate per-shard sub-scans in key
// order) without marking the slot answered; finish with FinishScan.
func (rs *ResultSet) AppendScan(idx int32, rows []KV) {
	rs.scans[idx] = append(rs.scans[idx], rows...)
}

// FinishScan seals a scan assembled via AppendScan: truncates to limit
// (0 = unlimited) and records the point Result.
func (rs *ResultSet) FinishScan(idx int32, limit Value) {
	rows := rs.scans[idx]
	if limit > 0 && Value(len(rows)) > limit {
		rows = rows[:limit]
		rs.scans[idx] = rows
	}
	rs.res[idx] = Result{Value: Value(len(rows)), Found: len(rows) > 0}
	rs.valid[idx] = true
}

// ScanRows returns the rows recorded for the scan with original index
// idx. ok is false if the slot was never answered.
func (rs *ResultSet) ScanRows(idx int32) (rows []KV, ok bool) {
	if int(idx) >= len(rs.scans) || !rs.valid[idx] {
		return nil, false
	}
	return rs.scans[idx], true
}

// Answered returns how many slots hold a recorded result.
func (rs *ResultSet) Answered() int {
	n := 0
	for _, v := range rs.valid {
		if v {
			n++
		}
	}
	return n
}

// SortByKey stably sorts the sequence by key, preserving the original
// order among equal keys (the pre-sorting step of §IV-E that one-pass
// QSAT relies on). Stability is essential: QSAT's correctness depends on
// the relative order of same-key queries.
func SortByKey(qs []Query) {
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].Key < qs[j].Key })
}

// IsSortedByKey reports whether qs is non-decreasing in key and, among
// equal keys, non-decreasing in original index (stable order).
func IsSortedByKey(qs []Query) bool {
	for i := 1; i < len(qs); i++ {
		if qs[i].Key < qs[i-1].Key {
			return false
		}
		if qs[i].Key == qs[i-1].Key && qs[i].Idx < qs[i-1].Idx {
			return false
		}
	}
	return true
}

// KeyRuns calls fn for every maximal run of equal keys in a key-sorted
// sequence. fn receives the half-open range [lo, hi) of the run.
func KeyRuns(qs []Query, fn func(lo, hi int)) {
	for lo := 0; lo < len(qs); {
		hi := lo + 1
		for hi < len(qs) && qs[hi].Key == qs[lo].Key {
			hi++
		}
		fn(lo, hi)
		lo = hi
	}
}

// CountOps tallies the number of searches, inserts, and deletes in qs.
// Scans and RMWs are not included; use CountOpsFull when a batch may
// mix all five ops.
func CountOps(qs []Query) (searches, inserts, deletes int) {
	for i := range qs {
		switch qs[i].Op {
		case OpSearch:
			searches++
		case OpInsert:
			inserts++
		case OpDelete:
			deletes++
		}
	}
	return
}

// CountOpsFull tallies all five operation kinds in qs.
func CountOpsFull(qs []Query) (searches, inserts, deletes, scans, rmws int) {
	for i := range qs {
		switch qs[i].Op {
		case OpSearch:
			searches++
		case OpInsert:
			inserts++
		case OpDelete:
			deletes++
		case OpScan:
			scans++
		case OpRMW:
			rmws++
		}
	}
	return
}
