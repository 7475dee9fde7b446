package keys

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{OpSearch, "S"},
		{OpInsert, "I"},
		{OpDelete, "D"},
		{Op(9), "Op(9)"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("Op(%d).String() = %q, want %q", c.op, got, c.want)
		}
	}
}

func TestOpIsDefining(t *testing.T) {
	if OpSearch.IsDefining() {
		t.Error("search must not be a defining op")
	}
	if !OpInsert.IsDefining() {
		t.Error("insert must be a defining op")
	}
	if !OpDelete.IsDefining() {
		t.Error("delete must be a defining op")
	}
}

func TestQueryString(t *testing.T) {
	cases := []struct {
		q    Query
		want string
	}{
		{Query{Op: OpInsert, Key: 7, Value: 42, Idx: 3}, "I(7,42)@3"},
		{Query{Op: OpDelete, Key: 9, Idx: 0}, "D(9)@0"},
		{Query{Op: OpSearch, Key: 1, Idx: 8}, "S(1)@8"},
	}
	for _, c := range cases {
		if got := c.q.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestConstructors(t *testing.T) {
	if q := Search(5); q.Op != OpSearch || q.Key != 5 {
		t.Errorf("Search(5) = %v", q)
	}
	if q := Insert(5, 6); q.Op != OpInsert || q.Key != 5 || q.Value != 6 {
		t.Errorf("Insert(5,6) = %v", q)
	}
	if q := Delete(5); q.Op != OpDelete || q.Key != 5 {
		t.Errorf("Delete(5) = %v", q)
	}
}

func TestNumber(t *testing.T) {
	qs := []Query{Search(3), Insert(1, 2), Delete(9)}
	Number(qs)
	for i, q := range qs {
		if q.Idx != int32(i) {
			t.Errorf("qs[%d].Idx = %d, want %d", i, q.Idx, i)
		}
	}
}

func TestResultSetBasic(t *testing.T) {
	rs := NewResultSet(4)
	if rs.Len() != 4 {
		t.Fatalf("Len = %d, want 4", rs.Len())
	}
	rs.Set(2, 99, true)
	rs.Set(3, 0, false)
	if r, ok := rs.Get(2); !ok || r.Value != 99 || !r.Found {
		t.Errorf("Get(2) = %v, %v", r, ok)
	}
	if r, ok := rs.Get(3); !ok || r.Found {
		t.Errorf("Get(3) = %v, %v; want recorded not-found", r, ok)
	}
	if _, ok := rs.Get(0); ok {
		t.Error("Get(0) should not be recorded")
	}
	if got := rs.Answered(); got != 2 {
		t.Errorf("Answered = %d, want 2", got)
	}
}

func TestResultSetReset(t *testing.T) {
	rs := NewResultSet(4)
	rs.Set(1, 7, true)
	rs.Reset(2)
	if rs.Len() != 2 {
		t.Fatalf("Len after Reset = %d, want 2", rs.Len())
	}
	if _, ok := rs.Get(1); ok {
		t.Error("Reset must clear recorded results")
	}
	rs.Reset(8) // grow beyond capacity
	if rs.Len() != 8 {
		t.Fatalf("Len after grow = %d, want 8", rs.Len())
	}
	if rs.Answered() != 0 {
		t.Error("grown set must be empty")
	}
}

// TestResultSetScanStorage covers the reusable scan storage: sealed
// rows keep their contents while later scans grow the slab into new
// chunks, a Reset hides the previous batch's rows from every slot, and
// a reused set stops allocating once it has seen its largest batch.
func TestResultSetScanStorage(t *testing.T) {
	rs := NewResultSet(0)
	fill := func(scans, rowsPer int) {
		rs.Reset(scans + 1) // last slot is a search
		rs.EnsureScans()
		slab := &rs.ScanSlabs(1)[0]
		for i := 0; i < scans; i++ {
			for r := 0; r < rowsPer; r++ {
				slab.Append(KV{Key: Key(i), Value: Value(r)})
			}
			if i%2 == 1 {
				slab.AppendAll([]KV{{Key: Key(i), Value: Value(rowsPer)}})
			}
			rs.SetScan(int32(i), slab.Finish())
		}
		rs.Set(int32(scans), 1, true)
	}
	check := func(scans, rowsPer int) {
		t.Helper()
		for i := 0; i < scans; i++ {
			rows, ok := rs.ScanRows(int32(i))
			if !ok || len(rows) != rowsPer+i%2 || cap(rows) != len(rows) {
				t.Fatalf("scan %d: %d rows (cap %d, ok %v), want %d", i, len(rows), cap(rows), ok, rowsPer+i%2)
			}
			for r, kv := range rows {
				if kv != (KV{Key: Key(i), Value: Value(r)}) {
					t.Fatalf("scan %d row %d = %+v: sealed rows moved", i, r, kv)
				}
			}
		}
		if rows, _ := rs.ScanRows(int32(scans)); rows != nil {
			t.Fatalf("search slot reports rows %v", rows)
		}
	}
	fill(50, 300) // 15 000 rows: several chunks
	check(50, 300)
	fill(3, 2)
	check(3, 2)
	if rows, ok := rs.ScanRows(10); ok || rows != nil {
		t.Fatalf("slot beyond the batch still answers: %v", rows)
	}
	fill(50, 300)
	if n := testing.AllocsPerRun(5, func() { fill(50, 300) }); n != 0 {
		t.Errorf("refilling a warm set allocates %.0f times, want 0", n)
	}
	check(50, 300)
}

func TestResultSetGetOutOfRange(t *testing.T) {
	rs := NewResultSet(1)
	if _, ok := rs.Get(5); ok {
		t.Error("out-of-range Get must report !ok")
	}
}

func TestSortByKeyStable(t *testing.T) {
	qs := Number([]Query{
		Insert(5, 1), Search(3), Insert(5, 2), Delete(3), Search(5), Insert(1, 9),
	})
	SortByKey(qs)
	if !IsSortedByKey(qs) {
		t.Fatalf("not sorted: %v", qs)
	}
	// Same-key queries must preserve original order.
	want := []int32{5, 1, 3, 0, 2, 4} // keys: 1,3,3,5,5,5
	for i, w := range want {
		if qs[i].Idx != w {
			t.Fatalf("qs[%d].Idx = %d, want %d (%v)", i, qs[i].Idx, w, qs)
		}
	}
}

func TestIsSortedByKeyDetectsViolations(t *testing.T) {
	if !IsSortedByKey(nil) {
		t.Error("empty sequence is sorted")
	}
	bad := []Query{{Key: 2}, {Key: 1}}
	if IsSortedByKey(bad) {
		t.Error("descending keys must not be sorted")
	}
	unstable := []Query{{Key: 2, Idx: 5}, {Key: 2, Idx: 1}}
	if IsSortedByKey(unstable) {
		t.Error("same-key descending Idx must not count as stable-sorted")
	}
}

func TestKeyRuns(t *testing.T) {
	qs := []Query{{Key: 1}, {Key: 1}, {Key: 2}, {Key: 5}, {Key: 5}, {Key: 5}}
	var runs [][2]int
	KeyRuns(qs, func(lo, hi int) { runs = append(runs, [2]int{lo, hi}) })
	want := [][2]int{{0, 2}, {2, 3}, {3, 6}}
	if len(runs) != len(want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("runs = %v, want %v", runs, want)
		}
	}
}

func TestKeyRunsEmpty(t *testing.T) {
	called := false
	KeyRuns(nil, func(lo, hi int) { called = true })
	if called {
		t.Error("KeyRuns on empty slice must not call fn")
	}
}

func TestCountOps(t *testing.T) {
	qs := []Query{Search(1), Search(2), Insert(3, 0), Delete(4), Delete(5), Delete(6)}
	s, i, d := CountOps(qs)
	if s != 2 || i != 1 || d != 3 {
		t.Errorf("CountOps = %d,%d,%d; want 2,1,3", s, i, d)
	}
}

// Property: SortByKey always yields a stable key-sorted permutation.
func TestSortByKeyProperty(t *testing.T) {
	f := func(rawKeys []uint16, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		qs := make([]Query, len(rawKeys))
		for i, k := range rawKeys {
			qs[i] = Query{Key: Key(k % 64), Op: Op(r.Intn(3)), Value: Value(r.Uint64())}
		}
		Number(qs)
		orig := make([]Query, len(qs))
		copy(orig, qs)
		SortByKey(qs)
		if !IsSortedByKey(qs) {
			return false
		}
		// Permutation check: every original query appears exactly once.
		seen := make(map[int32]Query, len(orig))
		for _, q := range qs {
			if _, dup := seen[q.Idx]; dup {
				return false
			}
			seen[q.Idx] = q
		}
		for _, q := range orig {
			if got, ok := seen[q.Idx]; !ok || got != q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
