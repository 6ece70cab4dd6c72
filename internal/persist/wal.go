package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"elink/internal/obs"
)

// FsyncPolicy controls when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs after every append: no committed batch is ever
	// lost, at the cost of one disk flush per ingest. The default.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs at most once per Options.FsyncEvery: a crash
	// loses at most the last interval's batches, which recovery then
	// simply lacks — the recovered state is still exact, just older.
	FsyncInterval
	// FsyncNever leaves flushing to the OS: fastest, loses up to the OS
	// write-back window on a machine crash (a process kill loses nothing
	// because the data is already in the page cache).
	FsyncNever
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return "unknown"
}

// ParseFsyncPolicy parses "always" | "interval" | "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("persist: unknown fsync policy %q (want always | interval | never)", s)
}

// Record kinds.
const (
	RecordReadings = 1 // raw measurements (Engine.Ingest)
	RecordFeatures = 2 // pre-fitted feature vectors (Engine.IngestFeatures)
)

// BatchRecord is one journaled ingest batch. Nodes/Values carry a
// readings batch; Nodes/Features carry a feature batch. Seq is the
// engine's ingest sequence number after applying the batch.
type BatchRecord struct {
	Seq      int64
	Kind     uint8
	Nodes    []int64
	Values   []float64
	Features [][]float64
}

// WALOptions parameterizes OpenWAL. The zero value is FsyncAlways with
// 8 MiB segments.
type WALOptions struct {
	Fsync FsyncPolicy
	// FsyncEvery is FsyncInterval's flush period (default 1s).
	FsyncEvery time.Duration
	// SegmentBytes rotates segments once they exceed this size
	// (default 8 MiB).
	SegmentBytes int64
	// Metrics, when non-zero, receives append/replay/fsync telemetry.
	Metrics WALMetrics
}

func (o WALOptions) withDefaults() WALOptions {
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = time.Second
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	return o
}

// WAL is an append-only, segmented journal of ingest batches. Appends
// are serialized internally; one WAL has a single writer (the engine's
// ingest path) and replay runs before appending begins.
type WAL struct {
	dir  string
	opts WALOptions

	mu       sync.Mutex
	f        *os.File
	size     int64
	seg      int
	lastSeq  int64
	lastSync time.Time
	dirty    bool
}

const walSegPrefix = "wal-"
const walSegSuffix = ".seg"

func segName(idx int) string { return fmt.Sprintf("%s%08d%s", walSegPrefix, idx, walSegSuffix) }

// OpenWAL opens (creating if needed) the journal in dir. Existing
// segments are preserved for replay; appends always start a fresh
// segment, so a torn tail from a previous crash is never appended
// after. Before any of that, the newest segment is repaired: a torn
// tail (the signature of a crash mid-append) is truncated away at the
// last intact record. Repair is what keeps a second crash survivable —
// once appends rotate past the damaged segment it is no longer the
// final one, and replay would otherwise have to treat the tear as
// unrecoverable corruption.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create WAL dir: %w", err)
	}
	w := &WAL{dir: dir, opts: opts.withDefaults()}
	segs, err := w.segments()
	if err != nil {
		return nil, err
	}
	w.seg = 0
	if len(segs) > 0 {
		if err := repairSegmentTail(filepath.Join(dir, segName(segs[len(segs)-1]))); err != nil {
			return nil, err
		}
		w.seg = segs[len(segs)-1] + 1
	}
	return w, nil
}

// repairSegmentTail truncates a segment at its last intact record,
// sealing a tail torn by a crash mid-append. Truncation drops exactly
// the bytes replay would refuse to deliver anyway (everything after the
// first undecodable frame), so no committed record is ever lost. A
// segment that died before its header finished holds nothing and is
// removed outright. Damage truncation cannot explain — wrong magic or
// version in a complete header — is left in place for replay to report.
func repairSegmentTail(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("persist: repair WAL tail: %w", err)
	}
	hdrLen := len(walMagic) + 4
	if len(data) < hdrLen {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("persist: repair WAL tail: %w", err)
		}
		return nil
	}
	if string(data[:len(walMagic)]) != walMagic ||
		binary.LittleEndian.Uint32(data[len(walMagic):]) != WALVersion {
		return nil
	}
	intact := hdrLen
	b := data[hdrLen:]
	for len(b) > 0 {
		_, rest, err := decodeRecord(b)
		if err != nil {
			break
		}
		intact += len(b) - len(rest)
		b = rest
	}
	if intact == len(data) {
		return nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("persist: repair WAL tail: %w", err)
	}
	if err := f.Truncate(int64(intact)); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("persist: repair WAL tail: %w", err)
	}
	return nil
}

// segments lists existing segment indices in ascending order.
func (w *WAL) segments() ([]int, error) {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: list WAL dir: %w", err)
	}
	var segs []int
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, walSegPrefix) || !strings.HasSuffix(name, walSegSuffix) {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(name, walSegPrefix+"%08d"+walSegSuffix, &idx); err != nil {
			continue
		}
		segs = append(segs, idx)
	}
	sort.Ints(segs)
	return segs, nil
}

// Append journals one batch record and applies the fsync policy. It
// must not be called concurrently with Replay. The append is traced as a
// "wal-append" child of parent, with the fsync (when the policy triggers
// one) as its own "fsync" child so a slow epoch distinguishes
// encode/write cost from flush stalls. A nil parent disables tracing;
// span methods are nil-safe.
func (w *WAL) Append(rec *BatchRecord, parent *obs.Span) error {
	sp := parent.Child("wal-append")
	defer sp.Finish()
	w.mu.Lock()
	defer w.mu.Unlock()
	if rec.Seq <= w.lastSeq && w.lastSeq != 0 {
		return fmt.Errorf("persist: WAL append seq %d not after %d", rec.Seq, w.lastSeq)
	}
	if w.f == nil || w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	frame := encodeRecord(rec)
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("persist: WAL append: %w", err)
	}
	w.size += int64(len(frame))
	w.lastSeq = rec.Seq
	w.dirty = true
	w.opts.Metrics.appended(int64(len(frame)))
	sync := func() error {
		fs := sp.Child("fsync")
		defer fs.Finish()
		return w.syncLocked()
	}
	switch w.opts.Fsync {
	case FsyncAlways:
		return sync()
	case FsyncInterval:
		if time.Since(w.lastSync) >= w.opts.FsyncEvery {
			return sync()
		}
	}
	return nil
}

func (w *WAL) rotateLocked() error {
	if w.f != nil {
		if err := w.syncLocked(); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("persist: close WAL segment: %w", err)
		}
		w.f = nil
	}
	path := filepath.Join(w.dir, segName(w.seg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: create WAL segment: %w", err)
	}
	hdr := make([]byte, 0, 12)
	hdr = append(hdr, walMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, WALVersion)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("persist: write WAL segment header: %w", err)
	}
	w.f = f
	w.size = int64(len(hdr))
	w.seg++
	return nil
}

func (w *WAL) syncLocked() error {
	if !w.dirty || w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("persist: WAL fsync: %w", err)
	}
	w.dirty = false
	w.lastSync = time.Now()
	w.opts.Metrics.synced()
	return nil
}

// Sync flushes any buffered appends to stable storage.
//
//elink:allow deadexport — durability on demand between the WAL's own periodic syncs
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

// Close syncs and closes the active segment. The WAL can not be
// appended to afterwards.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// Replay streams every intact record with Seq > afterSeq, oldest first,
// to fn. A truncated or corrupt tail in the newest segment — the
// expected signature of a crash mid-append — ends replay cleanly at the
// last intact record; the same damage in an older segment is an error,
// because records after it would replay out of order.
func (w *WAL) Replay(afterSeq int64, fn func(*BatchRecord) error) error {
	w.mu.Lock()
	segs, err := w.segments()
	w.mu.Unlock()
	if err != nil {
		return err
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		if err := w.replaySegment(seg, last, afterSeq, fn); err != nil {
			return err
		}
	}
	return nil
}

func (w *WAL) replaySegment(seg int, tolerateTail bool, afterSeq int64, fn func(*BatchRecord) error) error {
	path := filepath.Join(w.dir, segName(seg))
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("persist: read WAL segment: %w", err)
	}
	hdrLen := len(walMagic) + 4
	if len(data) < hdrLen || string(data[:len(walMagic)]) != walMagic {
		if tolerateTail && len(data) < hdrLen {
			return nil // segment died before its header finished
		}
		return corruptf("WAL segment %s has a bad header", segName(seg))
	}
	if v := binary.LittleEndian.Uint32(data[len(walMagic):]); v != WALVersion {
		return fmt.Errorf("%w: WAL segment version %d, this build reads %d", ErrVersion, v, WALVersion)
	}
	b := data[hdrLen:]
	for len(b) > 0 {
		rec, rest, err := decodeRecord(b)
		if err != nil {
			if tolerateTail {
				return nil // torn tail: stop at the last intact record
			}
			return fmt.Errorf("WAL segment %s: %w", segName(seg), err)
		}
		b = rest
		if rec.Seq <= afterSeq {
			continue
		}
		w.opts.Metrics.replayed()
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// TruncateThrough deletes every sealed segment whose records are all
// covered by a snapshot at seq. The active append segment is never
// removed.
func (w *WAL) TruncateThrough(seq int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	segs, err := w.segments()
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if w.f != nil && seg == w.seg-1 {
			continue // active segment
		}
		maxSeq, ok := segmentMaxSeq(filepath.Join(w.dir, segName(seg)))
		if !ok || maxSeq > seq {
			continue
		}
		if err := os.Remove(filepath.Join(w.dir, segName(seg))); err != nil {
			return fmt.Errorf("persist: truncate WAL: %w", err)
		}
	}
	return nil
}

// segmentMaxSeq scans one segment for the largest intact record seq.
func segmentMaxSeq(path string) (int64, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	hdrLen := len(walMagic) + 4
	if len(data) < hdrLen {
		return 0, true // headerless stub: covered by anything
	}
	b := data[hdrLen:]
	var maxSeq int64
	for len(b) > 0 {
		rec, rest, err := decodeRecord(b)
		if err != nil {
			break
		}
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		b = rest
	}
	return maxSeq, true
}

// encodeRecord frames one record: u32 payload length, payload, u32 CRC.
func encodeRecord(rec *BatchRecord) []byte {
	var e enc
	e.i64(rec.Seq)
	e.u8(rec.Kind)
	switch rec.Kind {
	case RecordReadings:
		e.ints(rec.Nodes)
		e.floats(rec.Values)
	case RecordFeatures:
		e.ints(rec.Nodes)
		e.u32(uint32(len(rec.Features)))
		for _, f := range rec.Features {
			e.floats(f)
		}
	}
	payload := e.b
	frame := make([]byte, 0, 8+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return frame
}

// decodeRecord parses one frame from the front of b, returning the
// record and the remaining bytes. Any truncation or corruption is an
// error (the caller decides whether a tail error is tolerable).
func decodeRecord(b []byte) (*BatchRecord, []byte, error) {
	if len(b) < 4 {
		return nil, nil, corruptf("torn record length")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 9 || n > maxSection || 4+n+4 > len(b) {
		return nil, nil, corruptf("record claims %d bytes, %d remain", n, len(b)-8)
	}
	payload := b[4 : 4+n]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(b[4+n:]); got != want {
		return nil, nil, corruptf("record CRC mismatch")
	}
	d := dec{b: payload}
	rec := &BatchRecord{Seq: d.i64(), Kind: d.u8()}
	switch rec.Kind {
	case RecordReadings:
		rec.Nodes = d.ints()
		rec.Values = d.floats()
		if len(rec.Nodes) != len(rec.Values) {
			d.fail("record has %d nodes, %d values", len(rec.Nodes), len(rec.Values))
		}
	case RecordFeatures:
		rec.Nodes = d.ints()
		nf := d.count(4)
		if d.err == nil && nf != len(rec.Nodes) {
			d.fail("record has %d nodes, %d features", len(rec.Nodes), nf)
		}
		if d.err == nil {
			rec.Features = make([][]float64, nf)
			for i := range rec.Features {
				rec.Features[i] = d.floats()
			}
		}
	default:
		d.fail("unknown record kind %d", rec.Kind)
	}
	if d.err == nil && d.off != len(payload) {
		// encodeRecord writes nothing after the last field: trailing
		// bytes mean the frame is not one of ours.
		d.fail("record has %d trailing bytes", len(payload)-d.off)
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	return rec, b[4+n+4:], nil
}
