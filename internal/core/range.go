package core

import "repro/internal/keys"

// Range primitives for the tier store (DESIGN.md §14). These operate
// on the tree directly at a batch boundary: the tier engine wrapper
// calls them between batches while holding the scheduling gate
// exclusively, so they take no locks themselves and bypass the
// transformer, the cache and the write-ahead log. Callers must drain the cache for
// the affected range first (DrainCacheRange) so the tree alone is
// authoritative for it.

// StoredLen returns the number of pairs stored in the tree. Dirty
// cache entries that have not been flushed are not counted; the cache
// is bounded, so the tier budget check tolerates the slack.
func (e *Engine) StoredLen() int { return e.proc.Tree().Len() }

// RangeDump returns the stored pairs with lo <= key <= hi in ascending
// order, at most max of them (max <= 0 means unlimited). more reports
// that the range holds further pairs beyond the returned ones.
func (e *Engine) RangeDump(lo, hi keys.Key, max int) (ks []keys.Key, vs []keys.Value, more bool) {
	t := e.proc.Tree()
	for it := t.Seek(lo); it.Valid(); it.Next() {
		k, v := it.Pair()
		if k > hi {
			break
		}
		if max > 0 && len(ks) == max {
			return ks, vs, true
		}
		ks = append(ks, k)
		vs = append(vs, v)
	}
	return ks, vs, false
}

// DeleteRange removes every stored pair with lo <= key <= hi,
// returning how many were removed.
func (e *Engine) DeleteRange(lo, hi keys.Key) int {
	t := e.proc.Tree()
	var doomed []keys.Key
	for it := t.Seek(lo); it.Valid(); it.Next() {
		k, _ := it.Pair()
		if k > hi {
			break
		}
		doomed = append(doomed, k)
	}
	for _, k := range doomed {
		t.Delete(k)
	}
	return len(doomed)
}

// InsertPairs stores the given pairs directly into the tree (the
// promotion path). Unlike WarmPairs it does not touch the cache.
func (e *Engine) InsertPairs(ks []keys.Key, vs []keys.Value) {
	t := e.proc.Tree()
	for i := range ks {
		t.Insert(ks[i], vs[i])
	}
}
