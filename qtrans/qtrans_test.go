package qtrans

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"sync"
	"testing"
)

func TestOpenZeroOptionsIsFull(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put(1, 10)
	if v, ok := db.Get(1); !ok || v != 10 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
}

func TestAllOptimizationLevels(t *testing.T) {
	for _, opt := range []Optimization{None, IntraBatch, Full} {
		db, err := Open(Options{Optimization: opt, Workers: 2, Order: 16, CacheCapacity: 64})
		if err != nil {
			t.Fatalf("opt %v: %v", opt, err)
		}
		b := NewBatch()
		insPos := b.Insert(5, 55)
		searchPos := b.Search(5)
		delPos := b.Delete(5)
		afterPos := b.Search(5)
		res := db.Run(b)

		if r, ok := res.Search(searchPos); !ok || !r.Found || r.Value != 55 {
			t.Fatalf("opt %v: search = %+v, %v", opt, r, ok)
		}
		if r, ok := res.Search(afterPos); !ok || r.Found {
			t.Fatalf("opt %v: search after delete = %+v, %v", opt, r, ok)
		}
		if _, ok := res.Search(insPos); ok {
			t.Fatalf("opt %v: insert position carries a result", opt)
		}
		if _, ok := res.Search(delPos); ok {
			t.Fatalf("opt %v: delete position carries a result", opt)
		}
		db.Close()
	}
}

func TestBatchLenAndPositions(t *testing.T) {
	b := NewBatch()
	if b.Len() != 0 {
		t.Fatal("new batch not empty")
	}
	p0 := b.Insert(1, 1)
	p1 := b.Search(1)
	p2 := b.Delete(1)
	if p0 != 0 || p1 != 1 || p2 != 2 || b.Len() != 3 {
		t.Fatalf("positions %d %d %d len %d", p0, p1, p2, b.Len())
	}
}

func TestLenAndScanFlushCache(t *testing.T) {
	db, err := Open(Options{Workers: 2, CacheCapacity: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put(Key(i), Value(i*2))
	}
	db.Remove(50)
	if n := db.Len(); n != 99 {
		t.Fatalf("Len = %d, want 99", n)
	}
	count := 0
	prev := Key(0)
	db.Scan(func(k Key, v Value) bool {
		if count > 0 && k <= prev {
			t.Fatalf("scan not ascending at %d", k)
		}
		if v != Value(k)*2 {
			t.Fatalf("Scan: value of %d = %d", k, v)
		}
		prev = k
		count++
		return true
	})
	if count != 99 {
		t.Fatalf("scan visited %d", count)
	}
}

func TestWarm(t *testing.T) {
	db, err := Open(Options{Workers: 1, CacheCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put(7, 77)
	db.Warm([]Key{7})
	if v, ok := db.Get(7); !ok || v != 77 {
		t.Fatalf("Get after Warm = %d,%v", v, ok)
	}
	if st := db.LastBatchStats(); st.CacheHits == 0 {
		t.Fatal("warmed key missed the cache")
	}
}

func TestRunMatchesMapSemantics(t *testing.T) {
	db, err := Open(Options{Workers: 3, Order: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := rand.New(rand.NewSource(17))
	model := map[Key]Value{}
	for round := 0; round < 5; round++ {
		b := NewBatch()
		type expect struct {
			pos   int
			v     Value
			found bool
		}
		var expects []expect
		for i := 0; i < 2000; i++ {
			k := Key(r.Intn(300))
			switch r.Intn(3) {
			case 0:
				v, found := model[k]
				expects = append(expects, expect{b.Search(k), v, found})
			case 1:
				v := Value(r.Intn(10000))
				b.Insert(k, v)
				model[k] = v
			default:
				b.Delete(k)
				delete(model, k)
			}
		}
		res := db.Run(b)
		for _, e := range expects {
			got, ok := res.Search(e.pos)
			if !ok || got.Found != e.found || (e.found && got.Value != e.v) {
				t.Fatalf("round %d pos %d: got %+v (%v), want %v/%v", round, e.pos, got, ok, e.v, e.found)
			}
		}
	}
	if db.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", db.Len(), len(model))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db, err := Open(Options{Workers: 2, Order: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 500; i++ {
		db.Put(Key(i), Value(i*3))
	}
	db.Remove(100)

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Len() != 499 {
		t.Fatalf("restored Len = %d", restored.Len())
	}
	if v, ok := restored.Get(250); !ok || v != 750 {
		t.Fatalf("restored Get(250) = %d,%v", v, ok)
	}
	if _, ok := restored.Get(100); ok {
		t.Fatal("removed key restored")
	}
	// The restored DB must be fully operational.
	restored.Put(9999, 1)
	if v, ok := restored.Get(9999); !ok || v != 1 {
		t.Fatalf("restored DB not writable: %d,%v", v, ok)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage")), Options{}); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

// TestLoadLegacyV1Snapshot checks a pre-gap ("QBT2") snapshot still
// opens through the facade with identical contents.
func TestLoadLegacyV1Snapshot(t *testing.T) {
	n := 200
	body := make([]byte, 12, 12+16*n)
	binary.LittleEndian.PutUint32(body[0:4], 8) // order
	binary.LittleEndian.PutUint64(body[4:12], uint64(n))
	for i := 0; i < n; i++ {
		var rec [16]byte
		binary.LittleEndian.PutUint64(rec[0:8], uint64(i*4+2))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(i*9))
		body = append(body, rec[:]...)
	}
	var snap bytes.Buffer
	snap.WriteString("QBT2")
	snap.Write(body)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	snap.Write(tail[:])

	db, err := Load(bytes.NewReader(snap.Bytes()), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Len() != n {
		t.Fatalf("Len = %d, want %d", db.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := db.Get(Key(i*4 + 2)); !ok || v != Value(i*9) {
			t.Fatalf("Get(%d) = %d,%v", i*4+2, v, ok)
		}
	}
}

func TestServiceBasics(t *testing.T) {
	db, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	svc := db.Serve(ServiceOptions{MaxBatch: 8})

	if err := svc.Put(1, 100); err != nil {
		t.Fatal(err)
	}
	v, found, err := svc.Get(1)
	if err != nil || !found || v != 100 {
		t.Fatalf("Get = %d,%v,%v", v, found, err)
	}
	if err := svc.Remove(1); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := svc.Get(1); found {
		t.Fatal("removed key found")
	}
	wait, err := svc.PutAsync(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	wait()
	svc.Close()
	if _, _, err := svc.Get(2); err == nil {
		t.Fatal("Get after Close succeeded")
	}
	// DB remains usable after service close.
	if v, ok := db.Get(2); !ok || v != 20 {
		t.Fatalf("db.Get(2) = %d,%v", v, ok)
	}
}

// TestServiceScanAndRMW covers the online scan and RMW surface added
// when the batcher Future grew its scan-rows side channel.
func TestServiceScanAndRMW(t *testing.T) {
	db, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	svc := db.Serve(ServiceOptions{MaxBatch: 8})
	defer svc.Close()

	for k := Key(10); k < 20; k++ {
		if err := svc.Put(k, Value(k*10)); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := svc.Scan(12, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []KV{{Key: 12, Value: 120}, {Key: 13, Value: 130}, {Key: 14, Value: 140}, {Key: 15, Value: 150}}
	if len(rows) != len(want) {
		t.Fatalf("Scan rows = %v, want %v", rows, want)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("Scan row %d = %+v, want %+v", i, rows[i], want[i])
		}
	}
	if rows, err = svc.Scan(10, 20, 3); err != nil || len(rows) != 3 {
		t.Fatalf("limited Scan = %v, %v", rows, err)
	}
	if rows, err = svc.Scan(1000, 2000, 0); err != nil || len(rows) != 0 {
		t.Fatalf("empty Scan = %v, %v", rows, err)
	}

	if old, existed, err := svc.AddDelta(500, 3); err != nil || existed || old != 0 {
		t.Fatalf("AddDelta absent = %d,%v,%v", old, existed, err)
	}
	if old, existed, err := svc.AddDelta(500, 4); err != nil || !existed || old != 3 {
		t.Fatalf("AddDelta present = %d,%v,%v", old, existed, err)
	}
	if old, existed, err := svc.SetIfAbsent(500, 99); err != nil || !existed || old != 7 {
		t.Fatalf("SetIfAbsent present = %d,%v,%v", old, existed, err)
	}
	if v, found, _ := svc.Get(500); !found || v != 7 {
		t.Fatalf("SetIfAbsent overwrote: %d,%v", v, found)
	}
	if _, existed, err := svc.SetIfAbsent(501, 11); err != nil || existed {
		t.Fatalf("SetIfAbsent absent existed=%v err=%v", existed, err)
	}
	if v, found, _ := svc.Get(501); !found || v != 11 {
		t.Fatalf("SetIfAbsent absent: %d,%v", v, found)
	}
	if svc.Batcher() == nil {
		t.Fatal("Batcher accessor returned nil")
	}
}

func TestServiceConcurrentClients(t *testing.T) {
	db, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	svc := db.Serve(ServiceOptions{MaxBatch: 32})
	defer svc.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := Key(w * 10000)
			for i := 0; i < 40; i++ {
				k := base + Key(i)
				if err := svc.Put(k, Value(i)); err != nil {
					errs <- err
					return
				}
				v, found, err := svc.Get(k)
				if err != nil {
					errs <- err
					return
				}
				if !found || v != Value(i) {
					errs <- errStale
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

var errStale = &staleError{}

type staleError struct{}

func (*staleError) Error() string { return "stale read through service" }

// TestBatchScanAndRMW exercises the extended facade API end to end —
// range scans (with limit), AddDelta, and SetIfAbsent in one batch with
// in-batch visibility — across the single-engine and sharded builds.
func TestBatchScanAndRMW(t *testing.T) {
	for _, shards := range []int{0, 3} {
		db, err := Open(Options{Optimization: Full, Workers: 2, Order: 16,
			CacheCapacity: 64, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for k := Key(0); k < 100; k += 10 {
			db.Put(k, Value(k))
		}

		b := NewBatch()
		all := b.Scan(0, 1000, 0)      // 10 rows
		limited := b.Scan(0, 1000, 3)  // first 3
		addNew := b.AddDelta(5, 7)     // absent: result (0,false), stores 7
		addOld := b.AddDelta(20, 1)    // present: result (20,true), stores 21
		setAbs := b.SetIfAbsent(6, 66) // absent: stores 66
		setHit := b.SetIfAbsent(30, 1) // present: no-op, result (30,true)
		after := b.Scan(0, 31, 0)      // sees 0,5,6,10,20(=21),30
		res := db.Run(b)

		rows, ok := res.Scan(all)
		if !ok || len(rows) != 10 {
			t.Fatalf("shards=%d: full scan %d rows (%v)", shards, len(rows), ok)
		}
		if r, _ := res.Search(all); !r.Found || r.Value != 10 {
			t.Fatalf("shards=%d: scan point result = %+v", shards, r)
		}
		rows, _ = res.Scan(limited)
		if len(rows) != 3 || rows[2].Key != 20 {
			t.Fatalf("shards=%d: limited scan = %v", shards, rows)
		}
		if r, _ := res.Search(addNew); r.Found {
			t.Fatalf("shards=%d: AddDelta on absent = %+v", shards, r)
		}
		if r, _ := res.Search(addOld); !r.Found || r.Value != 20 {
			t.Fatalf("shards=%d: AddDelta on present = %+v", shards, r)
		}
		if r, _ := res.Search(setAbs); r.Found {
			t.Fatalf("shards=%d: SetIfAbsent on absent = %+v", shards, r)
		}
		if r, _ := res.Search(setHit); !r.Found || r.Value != 30 {
			t.Fatalf("shards=%d: SetIfAbsent on present = %+v", shards, r)
		}
		rows, _ = res.Scan(after)
		want := []KV{
			{Key: 0, Value: 0}, {Key: 5, Value: 7}, {Key: 6, Value: 66},
			{Key: 10, Value: 10}, {Key: 20, Value: 21}, {Key: 30, Value: 30},
		}
		if len(rows) != len(want) {
			t.Fatalf("shards=%d: after-scan = %v, want %v", shards, rows, want)
		}
		for i := range want {
			if rows[i] != want[i] {
				t.Fatalf("shards=%d: after-scan row %d = %+v, want %+v", shards, i, rows[i], want[i])
			}
		}

		if v, ok := db.Get(5); !ok || v != 7 {
			t.Fatalf("shards=%d: Get(5) = %d,%v after RMW", shards, v, ok)
		}
		db.Close()
	}
}
