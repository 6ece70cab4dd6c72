package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"elink/internal/cluster"
	"elink/internal/metric"
	"elink/internal/topology"
)

// enc builds a section payload in memory. All integers are little-endian
// fixed width; floats are IEEE-754 bit patterns, so round-trips are
// bit-exact.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) i64(v int64)  { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v)) }
func (e *enc) f64(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) floats(v []float64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}
func (e *enc) ints(v []int64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.i64(x)
	}
}
func (e *enc) nodes(v []topology.NodeID) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.i64(int64(x))
	}
}
func (e *enc) feature(f metric.Feature) { e.floats(f) }
func (e *enc) features(fs []metric.Feature) {
	e.u32(uint32(len(fs)))
	for _, f := range fs {
		e.feature(f)
	}
}

// stats encodes a cluster.Stats with the breakdown sorted by kind so the
// encoding is deterministic.
func (e *enc) stats(s cluster.Stats) {
	e.i64(s.Messages)
	e.f64(s.Time)
	kinds := make([]string, 0, len(s.Breakdown))
	for k := range s.Breakdown {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	e.u32(uint32(len(kinds)))
	for _, k := range kinds {
		e.str(k)
		e.i64(s.Breakdown[k])
	}
}

// dec consumes a section payload. The error is sticky: after the first
// failure every read returns a zero value, so decode code reads straight
// through and checks err once. Every length is validated against the
// remaining bytes before allocating, so hostile inputs cannot force
// oversized allocations or panics.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = corruptf(format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *dec) u8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (d *dec) i64() int64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(p))
}

func (d *dec) f64() float64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

func (d *dec) bool() bool { return d.u8() != 0 }

// count reads a u32 element count and validates it against the bytes
// remaining at elemSize bytes per element.
func (d *dec) count(elemSize int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || (elemSize > 0 && n > (len(d.b)-d.off)/elemSize) {
		d.fail("count %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return 0
	}
	return n
}

func (d *dec) str() string {
	n := d.count(1)
	p := d.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

func (d *dec) floats() []float64 {
	n := d.count(8)
	if d.err != nil {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

func (d *dec) ints() []int64 {
	n := d.count(8)
	if d.err != nil {
		return nil
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = d.i64()
	}
	return v
}

func (d *dec) nodes() []topology.NodeID {
	n := d.count(8)
	if d.err != nil {
		return nil
	}
	v := make([]topology.NodeID, n)
	for i := range v {
		v[i] = topology.NodeID(d.i64())
	}
	return v
}

func (d *dec) feature() metric.Feature { return metric.Feature(d.floats()) }

func (d *dec) features() []metric.Feature {
	n := d.count(4) // each feature is at least a 4-byte length
	if d.err != nil {
		return nil
	}
	fs := make([]metric.Feature, n)
	for i := range fs {
		fs[i] = d.feature()
	}
	return fs
}

func (d *dec) stats() cluster.Stats {
	s := cluster.Stats{Messages: d.i64(), Time: d.f64()}
	n := d.count(13) // str len + 1 byte min + i64
	if d.err != nil {
		return s
	}
	s.Breakdown = make(map[string]int64, n)
	for i := 0; i < n; i++ {
		k := d.str()
		v := d.i64()
		if d.err != nil {
			return s
		}
		s.Breakdown[k] = v
	}
	return s
}

// writeSection frames one payload: tag, length, payload, CRC. The CRC
// covers the header too, so a damaged tag or length cannot turn a known
// section into a skipped unknown one.
func writeSection(w io.Writer, tag uint8, payload []byte) (int64, error) {
	hdr := make([]byte, 0, 5)
	hdr = append(hdr, tag)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, payload))
	if _, err := w.Write(tail[:]); err != nil {
		return 0, err
	}
	return int64(5 + len(payload) + 4), nil
}

// readSection reads one framed section, verifying length and CRC. An
// secEnd tag returns (secEnd, nil, nil).
func readSection(r io.Reader) (uint8, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, corruptf("truncated section header")
		}
		return 0, nil, err
	}
	tag := hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxSection {
		return 0, nil, corruptf("section %d claims %d bytes", tag, n)
	}
	// Copy progressively instead of pre-allocating n bytes, so a header
	// claiming a huge length on a tiny (fuzzed or truncated) input fails
	// without a giant allocation.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return 0, nil, corruptf("section %d truncated at %d bytes", tag, n)
	}
	payload := buf.Bytes()
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return 0, nil, corruptf("section %d missing CRC", tag)
	}
	if got, want := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, payload), binary.LittleEndian.Uint32(tail[:]); got != want {
		return 0, nil, corruptf("section %d CRC mismatch (got %08x, want %08x)", tag, got, want)
	}
	return tag, payload, nil
}
