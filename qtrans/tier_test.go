package qtrans

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/shard"
	"repro/internal/tier"
)

// tierOpts is the standard small-scale tiered config used by the
// integration tests: a 256-key space with a 32-key resident budget, so
// a few dozen insert batches force demotions.
func tierOpts(fs *faultfs.FS) Options {
	return Options{
		Order: 8, Workers: 2, CacheCapacity: 16,
		Tiered: Tiered{
			Dir:                "tier",
			MaxResidentKeys:    32,
			RunKeys:            16,
			HeatBuckets:        16,
			KeyMax:             256,
			MaxActionsPerBatch: 2,
			fs:                 fs,
		},
	}
}

// fillTiered inserts keys [0, n) with value k*3+7 in batches of 8, then
// runs a few hot search batches so maintenance demotes the cold tail.
func fillTiered(t *testing.T, db *DB, n int) {
	t.Helper()
	for lo := 0; lo < n; lo += 8 {
		b := NewBatch()
		for k := lo; k < lo+8 && k < n; k++ {
			b.Insert(Key(k), Value(k*3+7))
		}
		db.Run(b)
	}
	for i := 0; i < 10; i++ {
		b := NewBatch()
		for k := 0; k < 8; k++ {
			b.Search(Key(k))
		}
		db.Run(b)
	}
	if err := db.Err(); err != nil {
		t.Fatalf("tiered DB poisoned during fill: %v", err)
	}
}

// coldKey returns one key from a cold residency range, or fails.
func coldKey(t *testing.T, db *DB) Key {
	t.Helper()
	for _, r := range db.tier.Store().Residency().Ranges() {
		if r.State == tier.Cold {
			return r.Lo
		}
	}
	t.Fatal("no cold range after fill")
	return 0
}

// TestTieredOffIdentical locks the zero-value contract: without
// Options.Tiered the DB carries no tier wrapper at all — the engine is
// the bare shard engine, and TierStats reports not-tiered.
func TestTieredOffIdentical(t *testing.T) {
	db, err := Open(Options{Order: 8, Workers: 2, CacheCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.tier != nil {
		t.Fatal("tier wrapper present with Tiered off")
	}
	if eng, ok := db.eng.(*shard.Engine); !ok || eng != db.shards {
		t.Fatalf("engine is %T, want the bare shard engine", db.eng)
	}
	if _, ok := db.TierStats(); ok {
		t.Fatal("TierStats ok on an untiered DB")
	}
}

// TestTieredBasicDemotePromote is the happy-path integration lock:
// overflowing the resident budget demotes ranges, cold point reads are
// served from runs, a write into a cold range faults it back in, and
// Len/Scan see the logical whole store throughout.
func TestTieredBasicDemotePromote(t *testing.T) {
	fs := faultfs.New()
	o := tierOpts(fs)
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 256
	fillTiered(t, db, n)

	st, ok := db.TierStats()
	if !ok {
		t.Fatal("TierStats not ok on a tiered DB")
	}
	if st.Demotions == 0 || st.ColdKeys == 0 || st.ColdRanges == 0 {
		t.Fatalf("no demotions after overflowing the budget: %+v", st)
	}
	if st.DiskBytes == 0 {
		t.Fatalf("cold ranges but no run bytes on disk: %+v", st)
	}
	if got := db.Len(); got != n {
		t.Fatalf("Len = %d with cold ranges, want %d", got, n)
	}
	// Residency stays within the budget plus the transient slack: one
	// batch can promote up to MaxActionsPerBatch runs before the next
	// boundary demotes the overflow, a batch of fresh inserts (8 keys)
	// lands resident first, and dirty cached pairs sit outside the tree
	// the budget check reads.
	bound := int64(o.Tiered.MaxResidentKeys + o.Tiered.MaxActionsPerBatch*o.Tiered.RunKeys + 8 + o.CacheCapacity)
	if st.ResidentKeys > bound {
		t.Fatalf("resident keys %d exceed budget %d + slack (bound %d)", st.ResidentKeys, o.Tiered.MaxResidentKeys, bound)
	}

	// A cold point read is served from the run without promoting.
	ck := coldKey(t, db)
	before, _ := db.TierStats()
	if v, found := db.Get(ck); !found || v != Value(ck*3+7) {
		t.Fatalf("Get(cold %d) = (%d, %v), want (%d, true)", ck, v, found, ck*3+7)
	}
	if after, _ := db.TierStats(); after.Promotions != before.Promotions {
		t.Fatal("point search promoted without PromoteReads")
	}
	if db.tier.Store().At(ck).State != tier.Cold {
		t.Fatalf("range at %d no longer cold after point search", ck)
	}

	// A write into the cold range faults it back in.
	db.Put(ck, 9999)
	if after, _ := db.TierStats(); after.Promotions == before.Promotions {
		t.Fatal("write into a cold range did not promote")
	}
	if v, found := db.Get(ck); !found || v != 9999 {
		t.Fatalf("Get(%d) after write = (%d, %v), want (9999, true)", ck, v, found)
	}

	// The logical store is intact and ordered across hot and cold.
	var gotKs []Key
	db.Scan(func(k Key, v Value) bool {
		want := Value(k*3 + 7)
		if k == ck {
			want = 9999
		}
		if v != want {
			t.Fatalf("Scan: key %d = %d, want %d", k, v, want)
		}
		gotKs = append(gotKs, k)
		return true
	})
	if len(gotKs) != n {
		t.Fatalf("Scan saw %d keys, want %d", len(gotKs), n)
	}
	for i, k := range gotKs {
		if k != Key(i) {
			t.Fatalf("Scan out of order at %d: %d", i, k)
		}
	}
	if err := db.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTieredSaveLoadPortability locks Save's materializing contract: a
// snapshot of a tiered DB (cold runs and all) loads into a plain DB and
// into another tiered DB with identical contents.
func TestTieredSaveLoadPortability(t *testing.T) {
	fs := faultfs.New()
	db, err := Open(tierOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 128
	fillTiered(t, db, n)
	if st, _ := db.TierStats(); st.ColdRanges == 0 {
		t.Fatal("fill produced no cold ranges; snapshot would not cover the tier")
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	check := func(name string, ldb *DB) {
		t.Helper()
		defer ldb.Close()
		if got := ldb.Len(); got != n {
			t.Fatalf("%s: Len = %d, want %d", name, got, n)
		}
		count := 0
		ldb.Scan(func(k Key, v Value) bool {
			if v != Value(k*3+7) {
				t.Fatalf("%s: key %d = %d, want %d", name, k, v, k*3+7)
			}
			count++
			return true
		})
		if count != n {
			t.Fatalf("%s: Scan saw %d keys, want %d", name, count, n)
		}
	}
	plain, err := Load(bytes.NewReader(buf.Bytes()), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	check("plain", plain)
	tiered, err := Load(bytes.NewReader(buf.Bytes()), tierOpts(faultfs.New()))
	if err != nil {
		t.Fatal(err)
	}
	check("tiered", tiered)
}

// tierDurOpts is tierOpts plus write-ahead logging over the same
// fault-injection filesystem, with a configurable shard count.
func tierDurOpts(fs *faultfs.FS, shards int) Options {
	o := tierOpts(fs)
	o.Shards = shards
	o.ShardKeyMax = 1 << 20
	o.Durability = Durability{Dir: "dur", fs: fs}
	return o
}

// TestTieredCheckpointShardPortable locks two reopen contracts at once:
// a tiered checkpoint resolves against the tier directory under a
// different Options.Shards (residency is shard-count-portable), and a
// reopen WITHOUT Options.Tiered refuses the tiered snapshot loudly
// instead of silently dropping the cold data.
func TestTieredCheckpointShardPortable(t *testing.T) {
	fs := faultfs.New()
	db, err := Open(tierDurOpts(fs, 1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 128
	fillTiered(t, db, n)
	if st, _ := db.TierStats(); st.ColdRanges == 0 {
		t.Fatal("fill produced no cold ranges; checkpoint would not cover the tier")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// A reopen without Tiered must refuse: the snapshot's cold ranges
	// live only in the tier directory it does not know about.
	plain := tierDurOpts(fs, 1)
	plain.Tiered = Tiered{}
	if _, err := Open(plain); err == nil || !strings.Contains(err.Error(), "tiered snapshot") {
		t.Fatalf("reopen without Tiered: err = %v, want tiered-snapshot refusal", err)
	}

	// A reopen under a different shard count resolves the cold runs.
	db2, err := Open(tierDurOpts(fs, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Len(); got != n {
		t.Fatalf("reopened Len = %d, want %d", got, n)
	}
	st, ok := db2.TierStats()
	if !ok || st.ColdRanges == 0 {
		t.Fatalf("reopened DB lost its cold ranges: ok=%v %+v", ok, st)
	}
	ck := coldKey(t, db2)
	if v, found := db2.Get(ck); !found || v != Value(ck*3+7) {
		t.Fatalf("Get(cold %d) after reopen = (%d, %v), want (%d, true)", ck, v, found, ck*3+7)
	}
	count := 0
	db2.Scan(func(k Key, v Value) bool {
		if v != Value(k*3+7) {
			t.Fatalf("reopened key %d = %d, want %d", k, v, k*3+7)
		}
		count++
		return true
	})
	if count != n {
		t.Fatalf("reopened Scan saw %d keys, want %d", count, n)
	}
}

// TestTieredRecoverLostTierDir locks the fatal recovery path: a
// checkpoint that references cold runs cannot reopen against a tier
// directory whose manifest is gone — that is acked data lost, and Open
// must say so rather than serve a hole.
func TestTieredRecoverLostTierDir(t *testing.T) {
	fs := faultfs.New()
	db, err := Open(tierDurOpts(fs, 1))
	if err != nil {
		t.Fatal(err)
	}
	fillTiered(t, db, 128)
	if st, _ := db.TierStats(); st.ColdRanges == 0 {
		t.Fatal("fill produced no cold ranges")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := fs.Remove(filepath.Join("tier", "MANIFEST")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(tierDurOpts(fs, 1)); err == nil || !strings.Contains(err.Error(), "tier state lost") {
		t.Fatalf("reopen with lost manifest: err = %v, want tier-state-lost refusal", err)
	}
}
