package main

import (
	"fmt"

	"repro/internal/keys"
	"repro/internal/oracle"
	"repro/qtrans"
)

// mirror runs every submitted query through internal/oracle and counts
// the answers of the program that differ from it.
type mirror struct {
	o  *oracle.Oracle
	rs *keys.ResultSet

	attempted int // queries submitted in the measured phase
	failed    int // answers or final pairs that differ from the oracle
	first     string
}

func newMirror() *mirror {
	return &mirror{o: oracle.New(), rs: keys.NewResultSet(0)}
}

func (m *mirror) fail(format string, args ...any) {
	if m.failed == 0 {
		m.first = fmt.Sprintf(format, args...)
	}
	m.failed++
}

// apply mirrors a batch's writes only (the batch's answers are not
// checked); searches and scans leave the oracle untouched.
func (m *mirror) apply(qs []keys.Query) {
	for _, q := range qs {
		if q.Op.IsDefining() {
			m.o.Apply(q, nil)
		}
	}
}

// answers is what the mirror needs of a batch's results; *qtrans.Results
// satisfies it.
type answers interface {
	Search(pos int) (qtrans.Result, bool)
	Scan(pos int) ([]qtrans.KV, bool)
}

// check mirrors a batch in submission order and compares every search,
// RMW and scan answer with the oracle's.
func (m *mirror) check(qs []keys.Query, got answers) {
	m.rs.Reset(len(qs))
	for i, q := range qs {
		if q.Op == keys.OpScan {
			want := m.scan(q)
			rows, ok := got.Scan(i)
			if !ok || !sameRows(rows, want) {
				m.fail("query %d %v: %d rows, oracle %d", i, q, len(rows), len(want))
			}
			continue
		}
		q.Idx = int32(i)
		m.o.Apply(q, m.rs)
		want, has := m.rs.Get(q.Idx)
		if !has {
			continue // insert or delete: checked through later reads and the final dump
		}
		if r, ok := got.Search(i); !ok || r != want {
			m.fail("query %d %v: got %+v, oracle %+v", i, q, r, want)
		}
	}
}

// scan answers a range scan from the oracle's point lookups: the
// oracle's own Scan walks its whole map, which no workload with
// thousands of scans per batch can afford. Unbounded ranges fall back
// to it.
func (m *mirror) scan(q keys.Query) []keys.KV {
	if q.Key2-q.Key > 1<<16 {
		return m.o.Scan(q.Key, q.Key2, q.Value)
	}
	var rows []keys.KV
	for k := q.Key; k < q.Key2; k++ {
		if v, ok := m.o.Get(k); ok {
			rows = append(rows, keys.KV{Key: k, Value: v})
			if q.Value > 0 && keys.Value(len(rows)) == q.Value {
				break
			}
		}
	}
	return rows
}

func sameRows(a, b []keys.KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// finalState compares the DB's full ascending dump with the oracle's.
func (m *mirror) finalState(db *qtrans.DB) {
	ks, vs := m.o.Dump()
	i := 0
	db.Scan(func(k qtrans.Key, v qtrans.Value) bool {
		if i >= len(ks) || ks[i] != k || vs[i] != v {
			m.fail("final dump: pair %d is (%d,%d), oracle differs", i, k, v)
			return false
		}
		i++
		return true
	})
	if i != len(ks) && m.failed == 0 {
		m.fail("final dump: %d pairs, oracle %d", i, len(ks))
	}
	if err := db.Err(); err != nil {
		m.fail("db error: %v", err)
	}
}
