package wal

import (
	"encoding/binary"
	"testing"

	"repro/internal/keys"
)

// TestWireOpMapping pins the on-disk op codes. Codes 0/1/2 predate
// scans and RMW; changing them would silently misread existing logs,
// so this is a format regression test, not a tautology.
func TestWireOpMapping(t *testing.T) {
	cases := []struct {
		q    keys.Query
		want byte
	}{
		{keys.Search(1), 0},
		{keys.Insert(1, 2), 1},
		{keys.Delete(1), 2},
		{keys.AddDelta(1, 2), 4},
		{keys.SetIfAbsent(1, 2), 5},
	}
	for _, c := range cases {
		if got := wireOp(&c.q); got != c.want {
			t.Errorf("wireOp(%v/%v) = %d, want %d", c.q.Op, c.q.RMW, got, c.want)
		}
	}
}

// TestWireOpPanicsOnScan: scans are pure reads and must never be
// logged; reaching wireOp with one is a programming error asserted by
// panic rather than silently writing a reserved code.
func TestWireOpPanicsOnScan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wireOp accepted a scan")
		}
	}()
	q := keys.Scan(1, 2, 0)
	wireOp(&q)
}

// TestEncodeFramePointOnlyBytes pins the exact record bytes of a
// point-only frame: the codes and the 17-byte layout are those of logs
// written before RMW existed, so old logs replay and new logs open
// under old readers. The search is not a define and is left out.
func TestEncodeFramePointOnlyBytes(t *testing.T) {
	qs := keys.Number([]keys.Query{
		keys.Insert(0x1122334455667788, 0x99),
		keys.Search(7),
		keys.Delete(8),
	})
	frame := encodeFrame(nil, kindBatch, 42, qs)
	logged := []keys.Query{qs[0], qs[2]}
	plen := binary.LittleEndian.Uint32(frame[0:4])
	if int(plen) != 1+8+4+17*len(logged) {
		t.Fatalf("plen = %d", plen)
	}
	p := frame[8:]
	if p[0] != kindBatch || binary.LittleEndian.Uint64(p[1:9]) != 42 ||
		binary.LittleEndian.Uint32(p[9:13]) != 2 {
		t.Fatalf("header = % x", p[:13])
	}
	wantOps := []byte{1, 2}
	o := 13
	for i, q := range logged {
		if p[o] != wantOps[i] {
			t.Fatalf("record %d op byte = %d, want %d", i, p[o], wantOps[i])
		}
		if binary.LittleEndian.Uint64(p[o+1:o+9]) != uint64(q.Key) ||
			binary.LittleEndian.Uint64(p[o+9:o+17]) != uint64(q.Value) {
			t.Fatalf("record %d bytes = % x", i, p[o:o+17])
		}
		o += 17
	}
}

// TestDecodeQueriesWireCodes checks the decode side: RMW codes map
// back to their kinds, and the reserved scan code 3 (plus anything
// past the known set) is rejected.
func TestDecodeQueriesWireCodes(t *testing.T) {
	enc := func(op byte, k, v uint64) []byte {
		rec := make([]byte, 17)
		rec[0] = op
		binary.LittleEndian.PutUint64(rec[1:9], k)
		binary.LittleEndian.PutUint64(rec[9:17], v)
		return rec
	}

	p := append(enc(4, 10, 3), enc(5, 11, 7)...)
	qs, ok := decodeQueries(p, 2)
	if !ok {
		t.Fatal("RMW records rejected")
	}
	// Searches are no longer written, but older logs hold them.
	if qs, ok := decodeQueries(enc(0, 12, 0), 1); !ok || qs[0].Op != keys.OpSearch || qs[0].Key != 12 {
		t.Fatalf("search record: %+v, %v", qs, ok)
	}
	if qs[0].Op != keys.OpRMW || qs[0].RMW != keys.RMWAdd || qs[0].Key != 10 || qs[0].Value != 3 {
		t.Fatalf("record 0 = %+v", qs[0])
	}
	if qs[1].Op != keys.OpRMW || qs[1].RMW != keys.RMWSetIfAbsent || qs[1].Key != 11 || qs[1].Value != 7 {
		t.Fatalf("record 1 = %+v", qs[1])
	}

	for _, bad := range []byte{3, 6, 99, 255} {
		if _, ok := decodeQueries(enc(bad, 1, 1), 1); ok {
			t.Errorf("wire op %d accepted", bad)
		}
	}
}

// TestLogKeepsNoOversizedScratch: the frame buffer is reused for
// records up to keepScratch bytes, and a larger record's buffer is not
// kept once it is written.
func TestLogKeepsNoOversizedScratch(t *testing.T) {
	l, err := newLog(OS(), t.TempDir(), Options{Sync: SyncOff}.withDefaults(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	small := keys.Number([]keys.Query{keys.Insert(1, 1), keys.Search(2)})
	if err := l.CommitBatch(small); err != nil {
		t.Fatal(err)
	}
	if cap(l.scratch) == 0 {
		t.Fatal("a small record's buffer was not kept")
	}
	big := make([]keys.Query, keepScratch/17+1)
	for i := range big {
		big[i] = keys.Insert(keys.Key(i), 1)
	}
	if err := l.CommitBatch(big); err != nil {
		t.Fatal(err)
	}
	if c := cap(l.scratch); c > keepScratch {
		t.Fatalf("kept a %d-byte buffer after a large record", c)
	}
}
