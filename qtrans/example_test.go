package qtrans_test

import (
	"fmt"

	"repro/qtrans"
)

// The basic batch workflow: assemble, run, read answers by position.
func Example() {
	db, err := qtrans.Open(qtrans.Options{Workers: 2})
	if err != nil {
		panic(err)
	}
	defer db.Close()

	batch := qtrans.NewBatch()
	batch.Insert(100, 7)
	q1 := batch.Search(100)
	batch.Delete(100)
	q2 := batch.Search(100)

	results := db.Run(batch)
	if r, ok := results.Search(q1); ok {
		fmt.Println("before delete:", r.Value, r.Found)
	}
	if r, ok := results.Search(q2); ok {
		fmt.Println("after delete:", r.Value, r.Found)
	}
	// Output:
	// before delete: 7 true
	// after delete: 0 false
}

// Convenience point operations wrap one-query batches.
func ExampleDB_Get() {
	db, _ := qtrans.Open(qtrans.Options{Workers: 1})
	defer db.Close()
	db.Put(1, 11)
	v, found := db.Get(1)
	fmt.Println(v, found)
	// Output: 11 true
}

// Scan flushes the write-back cache and walks the tree in key order.
func ExampleDB_Scan() {
	db, _ := qtrans.Open(qtrans.Options{Workers: 1})
	defer db.Close()
	for _, k := range []qtrans.Key{30, 10, 20} {
		db.Put(k, qtrans.Value(k)*10)
	}
	db.Scan(func(k qtrans.Key, v qtrans.Value) bool {
		fmt.Println(k, v)
		return true
	})
	// Output:
	// 10 100
	// 20 200
	// 30 300
}

// The online Service batches individual queries transparently.
func ExampleDB_Serve() {
	db, _ := qtrans.Open(qtrans.Options{Workers: 1})
	defer db.Close()
	svc := db.Serve(qtrans.ServiceOptions{MaxBatch: 16})
	defer svc.Close()

	if err := svc.Put(5, 55); err != nil {
		panic(err)
	}
	v, found, _ := svc.Get(5)
	fmt.Println(v, found)
	// Output: 55 true
}

// Explain classifies a batch's redundancy up front, without running it.
func ExampleExplain() {
	batch := qtrans.NewBatch()
	batch.Search(7)    // representative survives
	batch.Search(7)    // redundant
	batch.Insert(7, 1) // overwritten
	batch.Insert(7, 2) // survives
	batch.Search(7)    // inferred (value 2)
	fmt.Println(qtrans.Explain(batch))
	// Output: 5 queries over 1 distinct keys: 3 eliminated (60.0%) — 1 redundant searches, 1 overwritten defines, 1 inferred returns; 2 survive
}

// QTrans eliminates redundant queries: 1000 searches of one hot key
// reach the tree as a single query.
func ExampleDB_LastBatchStats() {
	db, _ := qtrans.Open(qtrans.Options{Workers: 1, Optimization: qtrans.IntraBatch})
	defer db.Close()
	db.Put(42, 1)

	batch := qtrans.NewBatch()
	for i := 0; i < 1000; i++ {
		batch.Search(42)
	}
	db.Run(batch)
	st := db.LastBatchStats()
	fmt.Printf("%d queries -> %d tree queries\n", st.BatchSize, st.RemainingQueries)
	// Output: 1000 queries -> 1 tree queries
}
