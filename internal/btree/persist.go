package btree

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"repro/internal/keys"
)

// Snapshot format v2 (little-endian):
//
//	magic   [4]byte  "QBT3"
//	order   uint32
//	layout  uint8    0 (1 marks a snapshot of the retired dense layout)
//	count   uint64
//	pairs   count × { key uint64, value uint64 }  (ascending keys)
//	crc     uint32   CRC32C over order..pairs (everything after magic)
//
// Only the key-value contents are stored — gaps are compacted on save —
// and Load rebuilds node structure with the bulk loader, which produces
// an equivalent (validated) tree. Save always writes layout byte 0;
// Load accepts 0 and 1 alike, so snapshots written while the dense
// layout still existed keep loading (as gapped trees), and rejects any
// other value as corrupt. Load also accepts the pre-gap v1 format
// ("QBT2" magic, no layout byte). The trailing checksum means a
// truncated or bit-flipped snapshot is reported as an error instead of
// silently loading a wrong tree (load_corruption_test.go corrupts every
// byte offset and demands so; snapshot_compat_test.go loads snapshots
// of every older kind).

var (
	snapshotMagic   = [4]byte{'Q', 'B', 'T', '3'}
	snapshotMagicV1 = [4]byte{'Q', 'B', 'T', '2'}
)

// castagnoli is the CRC32C table shared by every persisted format in
// this repository (snapshots, traces, WAL records).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcWriter tees writes into a running CRC32C.
type crcWriter struct {
	w   io.Writer
	sum hash.Hash32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.sum.Write(p[:n])
	return n, err
}

// Save writes a snapshot of the tree's contents.
func (t *Tree) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("btree: save magic: %w", err)
	}
	cw := &crcWriter{w: bw, sum: crc32.New(castagnoli)}
	var hdr [13]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(t.order))
	hdr[4] = 0 // layout byte: always 0 (gapped)
	binary.LittleEndian.PutUint64(hdr[5:13], uint64(t.size))
	if _, err := cw.Write(hdr[:]); err != nil {
		return fmt.Errorf("btree: save header: %w", err)
	}
	var rec [16]byte
	var saveErr error
	t.Scan(func(k keys.Key, v keys.Value) bool {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(k))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(v))
		if _, err := cw.Write(rec[:]); err != nil {
			saveErr = fmt.Errorf("btree: save pair: %w", err)
			return false
		}
		return true
	})
	if saveErr != nil {
		return saveErr
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.sum.Sum32())
	if _, err := bw.Write(tail[:]); err != nil {
		return fmt.Errorf("btree: save checksum: %w", err)
	}
	return bw.Flush()
}

// Load reconstructs a tree from a snapshot written by Save. order <= 0
// keeps the snapshot's recorded order; otherwise the tree is rebuilt
// at the given order (snapshots are order-portable). Load verifies the
// checksum trailer and fails on any truncation or corruption.
func Load(r io.Reader, order int) (*Tree, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("btree: load magic: %w", err)
	}
	v1 := m == snapshotMagicV1
	if !v1 && m != snapshotMagic {
		return nil, fmt.Errorf("btree: bad snapshot magic %q", m)
	}
	sum := crc32.New(castagnoli)
	hdrLen := 13
	if v1 {
		hdrLen = 12
	}
	var hdrBuf [13]byte
	hdr := hdrBuf[:hdrLen]
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("btree: load header: %w", err)
	}
	sum.Write(hdr)
	savedOrder := int(binary.LittleEndian.Uint32(hdr[0:4]))
	countOff := 4
	if !v1 {
		// 0 = gapped, 1 = the retired dense layout; both rebuild gapped.
		if hdr[4] > 1 {
			return nil, fmt.Errorf("btree: snapshot layout %d invalid", hdr[4])
		}
		countOff = 5
	}
	count := binary.LittleEndian.Uint64(hdr[countOff : countOff+8])
	if order <= 0 {
		order = savedOrder
	}
	if order < MinOrder {
		return nil, fmt.Errorf("btree: snapshot order %d invalid", order)
	}

	capHint := count
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	ks := make([]keys.Key, 0, capHint)
	vs := make([]keys.Value, 0, capHint)
	var rec [16]byte
	var prev keys.Key
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("btree: load pair %d: %w", i, err)
		}
		sum.Write(rec[:])
		k := keys.Key(binary.LittleEndian.Uint64(rec[0:8]))
		if i > 0 && k <= prev {
			return nil, fmt.Errorf("btree: snapshot keys not ascending at pair %d", i)
		}
		prev = k
		ks = append(ks, k)
		vs = append(vs, keys.Value(binary.LittleEndian.Uint64(rec[8:16])))
	}
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("btree: load checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != sum.Sum32() {
		return nil, fmt.Errorf("btree: snapshot checksum mismatch (stored %08x, computed %08x)", got, sum.Sum32())
	}
	return BulkLoad(order, ks, vs)
}
