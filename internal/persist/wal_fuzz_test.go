package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"
)

// FuzzWALRecordDecode proves the WAL frame decoder is total and exact:
// arbitrary bytes either fail with a package error or decode into a
// record that re-encodes to exactly the bytes the decoder consumed, and
// no claimed count makes it allocate more than a small constant factor
// of the input. Frames of real records, truncated and bit-flipped, seed
// the corpus so the fuzzer starts inside the format.
func FuzzWALRecordDecode(f *testing.F) {
	readings := encodeRecord(&BatchRecord{Seq: 7, Kind: RecordReadings,
		Nodes: []int64{0, 3, 5}, Values: []float64{1.5, -2, 0.25}})
	features := encodeRecord(&BatchRecord{Seq: 8, Kind: RecordFeatures,
		Nodes: []int64{1, 2}, Features: [][]float64{{0.5}, {1, -0.125}}})
	f.Add(readings)
	f.Add(features)
	f.Add(append(append([]byte(nil), readings...), features...))
	f.Add(readings[:len(readings)/2])
	f.Add(encodeRecord(&BatchRecord{Seq: 1, Kind: RecordFeatures}))
	f.Add([]byte{})
	mut := append([]byte(nil), features...)
	mut[len(mut)/2] ^= 0xFF
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		// data is tried as a raw frame and as the payload of a frame with
		// a valid length and CRC, so mutations reach the payload decoder
		// instead of dying at the checksum.
		checkRecordDecode(t, data)
		checkRecordDecode(t, frame(data))
	})
}

// frame wraps payload the way encodeRecord does: a little-endian length,
// the payload, then its CRC-32.
func frame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

func checkRecordDecode(t *testing.T, data []byte) {
	t.Helper()
	rec, rest, err := decodeRecord(data)
	// Element slices are sized by counts checked against the bytes left
	// (8 input bytes per node or value); the feature table's 24-byte
	// slice headers are each backed by at least 12 input bytes (a node
	// id and a 4-byte count), so even a frame of empty features stays
	// under 4x its length plus a fixed allowance for the record and
	// error values.
	if alloc := decodeAlloc(data); alloc > uint64(4*len(data)+1024) {
		t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
	}
	if err != nil {
		if !strings.Contains(err.Error(), "persist:") {
			t.Errorf("error %v does not carry the package prefix", err)
		}
		return
	}
	consumed := data[:len(data)-len(rest)]
	if got := encodeRecord(rec); !bytes.Equal(got, consumed) {
		t.Fatalf("record %+v re-encodes to %x, consumed %x", rec, got, consumed)
	}
}

// decodeAlloc reports the fewest bytes decodeRecord(data) was seen to
// allocate over three runs. The decode is deterministic, so the least
// measurement filters out allocations made meanwhile by the fuzzing
// engine's own goroutines.
func decodeAlloc(data []byte) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decodeRecord(data)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
