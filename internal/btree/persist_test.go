package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/keys"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := MustNew(8)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		tr.Insert(keys.Key(r.Intn(20000)), keys.Value(r.Uint64()))
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Order() != 8 {
		t.Fatalf("Order = %d, want snapshot's 8", got.Order())
	}
	if err := got.Validate(StrictFill); err != nil {
		t.Fatal(err)
	}
	gk, gv := got.Dump()
	wk, wv := tr.Dump()
	if len(gk) != len(wk) {
		t.Fatalf("sizes %d vs %d", len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] || gv[i] != wv[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	tr := MustNew(4)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, 0)
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty round trip: %v, len %d", err, got.Len())
	}
}

func TestLoadAtDifferentOrder(t *testing.T) {
	tr := MustNew(4)
	for i := 0; i < 1000; i++ {
		tr.Insert(keys.Key(i), keys.Value(i))
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, 64) // order-portable
	if err != nil {
		t.Fatal(err)
	}
	if got.Order() != 64 {
		t.Fatalf("Order = %d", got.Order())
	}
	if got.Height() >= tr.Height() {
		t.Fatalf("wider tree not shallower: %d vs %d", got.Height(), tr.Height())
	}
	if err := got.Validate(StrictFill); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsCorruptSnapshots(t *testing.T) {
	tr := MustNew(4)
	tr.Insert(1, 1)
	tr.Insert(2, 2)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := Load(bytes.NewReader([]byte("XXXX")), 0); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Load(bytes.NewReader(raw[:10]), 0); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := Load(bytes.NewReader(raw[:len(raw)-3]), 0); err == nil {
		t.Fatal("truncated pairs accepted")
	}
	// Swap the two pairs so keys descend (v2 pairs start after the
	// 4-byte magic + 13-byte header).
	bad := append([]byte(nil), raw...)
	copy(bad[17:33], raw[33:49])
	copy(bad[33:49], raw[17:33])
	if _, err := Load(bytes.NewReader(bad), 0); err == nil {
		t.Fatal("descending keys accepted")
	}
	// Invalid layout byte (hdr[4] after magic).
	badLayout := append([]byte(nil), raw...)
	badLayout[8] = 0x7f
	if _, err := Load(bytes.NewReader(badLayout), 0); err == nil {
		t.Fatal("invalid layout byte accepted")
	}
	// Hostile count with no data must fail fast, not allocate.
	hostile := append([]byte(nil), raw[:17]...)
	hostile[9] = 0xff // count low byte
	hostile[13] = 0xff
	if _, err := Load(bytes.NewReader(hostile), 0); err == nil {
		t.Fatal("hostile count accepted")
	}
}

// v1Snapshot hand-writes a pre-gap ("QBT2") snapshot: 12-byte header
// with no layout byte, same CRC trailer. Kept in the test only — the
// writer for this format no longer exists in the tree.
func v1Snapshot(order uint32, ks []keys.Key, vs []keys.Value) []byte {
	var buf bytes.Buffer
	buf.WriteString("QBT2")
	body := make([]byte, 12, 12+16*len(ks))
	binary.LittleEndian.PutUint32(body[0:4], order)
	binary.LittleEndian.PutUint64(body[4:12], uint64(len(ks)))
	for i := range ks {
		var rec [16]byte
		binary.LittleEndian.PutUint64(rec[0:8], uint64(ks[i]))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(vs[i]))
		body = append(body, rec[:]...)
	}
	buf.Write(body)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.Checksum(body, castagnoli))
	buf.Write(tail[:])
	return buf.Bytes()
}

// TestLoadLegacyV1Snapshot locks backward compatibility: a snapshot in
// the pre-gap v1 format loads into a tree with the same contents, and
// the v1 bytes are still protected by their checksum.
func TestLoadLegacyV1Snapshot(t *testing.T) {
	n := 300
	ks := make([]keys.Key, n)
	vs := make([]keys.Value, n)
	for i := range ks {
		ks[i] = keys.Key(i*5 + 1)
		vs[i] = keys.Value(i * 11)
	}
	snap := v1Snapshot(8, ks, vs)

	got, err := Load(bytes.NewReader(snap), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Order() != 8 || got.Len() != n {
		t.Fatalf("order %d len %d", got.Order(), got.Len())
	}
	if err := got.Validate(StrictFill); err != nil {
		t.Fatal(err)
	}
	gk, gv := got.Dump()
	for i := range ks {
		if gk[i] != ks[i] || gv[i] != vs[i] {
			t.Fatalf("pair %d mismatch", i)
		}
	}

	// Every single-byte corruption of the v1 snapshot must be rejected
	// too (the legacy reader shares the checksum trailer).
	for off := 0; off < len(snap); off++ {
		mut := append([]byte(nil), snap...)
		mut[off] ^= 0xFF
		if _, err := Load(bytes.NewReader(mut), 0); err == nil {
			t.Fatalf("v1 snapshot with byte %d flipped accepted", off)
		}
	}
}

var errDiskFull = errors.New("disk full")

// failWriter fails every write, counting the attempts.
type failWriter struct{ writes int }

func (w *failWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errDiskFull
}

// TestSaveReportsWriteErrors checks Save hands a failing writer's error
// back: at the final flush for a snapshot that fits the write buffer,
// and from the pair loop — which stops at the first failure — for one
// that does not.
func TestSaveReportsWriteErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
		want string
	}{
		{"at flush", 10, "disk full"},
		{"while writing pairs", 10000, "btree: save pair"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := MustNew(8)
			for i := 0; i < c.n; i++ {
				tr.Insert(keys.Key(i), keys.Value(i))
			}
			w := &failWriter{}
			err := tr.Save(w)
			if !errors.Is(err, errDiskFull) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Save error %v, want %q wrapping %v", err, c.want, errDiskFull)
			}
			if w.writes != 1 {
				t.Fatalf("Save kept writing after the failure: %d writes", w.writes)
			}
		})
	}
}
