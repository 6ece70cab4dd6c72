package persist_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"elink/internal/persist"
)

func readingsRecord(seq int64, n int) *persist.BatchRecord {
	rec := &persist.BatchRecord{Seq: seq, Kind: persist.RecordReadings}
	for i := 0; i < n; i++ {
		rec.Nodes = append(rec.Nodes, int64(i))
		rec.Values = append(rec.Values, float64(seq)+0.25*float64(i))
	}
	return rec
}

func collect(t *testing.T, w *persist.WAL, afterSeq int64) []*persist.BatchRecord {
	t.Helper()
	var got []*persist.BatchRecord
	if err := w.Replay(afterSeq, func(rec *persist.BatchRecord) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := persist.OpenWAL(dir, persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []*persist.BatchRecord{
		readingsRecord(1, 3),
		{Seq: 2, Kind: persist.RecordFeatures, Nodes: []int64{0, 2}, Features: [][]float64{{1.5}, {2.5, -0.125}}},
		readingsRecord(3, 1),
	}
	for _, rec := range want {
		if err := w.Append(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh handle over the same dir replays everything, in order.
	r, err := persist.OpenWAL(dir, persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, r, 0)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replayed %+v, want %+v", got, want)
	}
	// afterSeq skips the covered prefix.
	if got := collect(t, r, 2); len(got) != 1 || got[0].Seq != 3 {
		t.Errorf("replay after seq 2 = %+v, want just seq 3", got)
	}
}

func TestWALAppendRejectsStaleSeq(t *testing.T) {
	w, err := persist.OpenWAL(t.TempDir(), persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(readingsRecord(5, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(readingsRecord(5, 1), nil); err == nil {
		t.Error("append with a non-advancing seq succeeded")
	}
}

// TestWALTruncatedTail is the crash-mid-append scenario: the final
// record of the newest segment is torn, and replay must stop cleanly at
// the last intact record instead of erroring out.
func TestWALTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	w, err := persist.OpenWAL(dir, persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 3; seq++ {
		if err := w.Append(readingsRecord(seq, 2), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, err %v; want exactly one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{1, 5, 17} { // inside CRC, payload, length prefix
		if err := os.WriteFile(segs[0], data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := persist.OpenWAL(dir, persist.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, r, 0)
		if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
			t.Errorf("cut %d: replayed %d records, want the 2 intact ones", cut, len(got))
		}
	}
}

// TestWALTornTailRepairedOnReopen is the double-crash scenario: a crash
// tears the tail of segment N, the restarted process appends (rotating
// into segment N+1), and a second crash forces another replay — with the
// torn segment no longer final. OpenWAL must truncate the tear at the
// first reopen, or the second recovery reads it as unrecoverable
// corruption and the server can never boot again.
func TestWALTornTailRepairedOnReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := persist.OpenWAL(dir, persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 3; seq++ {
		if err := w.Append(readingsRecord(seq, 2), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tear seq 3's record mid-frame.
	if err := os.WriteFile(segs[0], data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	// First restart: the two intact records replay, and re-appending seq 3
	// rotates into a fresh segment, so the torn one stops being final.
	r, err := persist.OpenWAL(dir, persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, r, 0); len(got) != 2 {
		t.Fatalf("first recovery replayed %d records, want 2", len(got))
	}
	if err := r.Append(readingsRecord(3, 2), nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Second restart: every record must replay, repaired segment included.
	r2, err := persist.OpenWAL(dir, persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, r2, 0)
	if len(got) != 3 || got[0].Seq != 1 || got[1].Seq != 2 || got[2].Seq != 3 {
		t.Errorf("second recovery replayed %+v, want seqs 1..3", got)
	}
}

// TestWALHeaderlessStubRemovedOnReopen: a segment that died before its
// header finished holds nothing recoverable; OpenWAL removes it so it
// can never be misread as corruption once later segments exist.
func TestWALHeaderlessStubRemovedOnReopen(t *testing.T) {
	dir := t.TempDir()
	stub := filepath.Join(dir, "wal-00000000.seg")
	if err := os.WriteFile(stub, []byte("EL"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := persist.OpenWAL(dir, persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stub); !os.IsNotExist(err) {
		t.Errorf("headerless stub still present after OpenWAL (stat err: %v)", err)
	}
	if err := w.Append(readingsRecord(1, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := persist.OpenWAL(dir, persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, r, 0); len(got) != 1 || got[0].Seq != 1 {
		t.Errorf("replay = %+v, want just seq 1", got)
	}
}

// TestWALCorruptMiddleSegmentFails pins the other side of the tail
// tolerance: damage in a non-final segment cannot be skipped, because
// the records after it would replay out of order.
func TestWALCorruptMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so every record rotates into its own file.
	w, err := persist.OpenWAL(dir, persist.WALOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 3; seq++ {
		if err := w.Append(readingsRecord(seq, 2), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 3 {
		t.Fatalf("%d segments, want 3", len(segs))
	}

	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := persist.OpenWAL(dir, persist.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = r.Replay(0, func(*persist.BatchRecord) error { return nil })
	if !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("replay over corrupt middle segment = %v, want ErrCorrupt", err)
	}
}

func TestWALRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	w, err := persist.OpenWAL(dir, persist.WALOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 4; seq++ {
		if err := w.Append(readingsRecord(seq, 1), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Everything up to seq 2 is covered by a snapshot: the first two
	// sealed segments go, the rest stay.
	if err := w.TruncateThrough(2); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, w, 0); len(got) != 2 || got[0].Seq != 3 {
		t.Errorf("after truncate, replay = %+v, want seqs 3..4", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: appends land in a fresh segment past the survivors.
	r, err := persist.OpenWAL(dir, persist.WALOptions{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Append(readingsRecord(5, 1), nil); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, r, 2); len(got) != 3 || got[2].Seq != 5 {
		t.Errorf("after reopen+append, replay = %d records, want 3", len(got))
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for s, want := range map[string]persist.FsyncPolicy{
		"always": persist.FsyncAlways, "INTERVAL": persist.FsyncInterval, "never": persist.FsyncNever,
	} {
		got, err := persist.ParseFsyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() == "unknown" {
			t.Errorf("%v renders as unknown", got)
		}
	}
	if _, err := persist.ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bogus policy parsed successfully")
	}
}

// TestWALCrashAtEveryOffset cuts a journal of mixed readings and feature
// records at every byte length a crash could leave on disk. Each prefix
// must reopen, replay exactly the records whose frames end within it,
// and accept the next append, which replays after them.
func TestWALCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	w, err := persist.OpenWAL(dir, persist.WALOptions{Fsync: persist.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var recs []*persist.BatchRecord
	for seq := int64(1); seq <= 6; seq++ {
		rec := readingsRecord(seq, int(seq))
		if seq%2 == 0 {
			rec = &persist.BatchRecord{Seq: seq, Kind: persist.RecordFeatures,
				Nodes: []int64{0, seq}, Features: [][]float64{{float64(seq)}, {-0.5, float64(seq) / 3}}}
		}
		recs = append(recs, rec)
	}
	seg := filepath.Join(dir, "wal-00000000.seg")
	var ends []int64 // ends[i] is the segment length once recs[i] is written
	for _, rec := range recs {
		if err := w.Append(rec, nil); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, fi.Size())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != ends[len(ends)-1] {
		t.Fatalf("segment holds %d bytes, the last append ended at %d", len(data), ends[len(ends)-1])
	}

	for l := 0; l <= len(data); l++ {
		cut := filepath.Join(t.TempDir(), "wal")
		if err := os.MkdirAll(cut, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cut, "wal-00000000.seg"), data[:l], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := persist.OpenWAL(cut, persist.WALOptions{Fsync: persist.FsyncNever})
		if err != nil {
			t.Fatalf("L=%d: open: %v", l, err)
		}
		var want []*persist.BatchRecord
		for i, end := range ends {
			if end <= int64(l) {
				want = append(want, recs[i])
			}
		}
		if got := collect(t, r, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("L=%d: replayed %d records, want the %d whose frames end by L", l, len(got), len(want))
		}
		next := readingsRecord(int64(len(want))+1, 2)
		if err := r.Append(next, nil); err != nil {
			t.Fatalf("L=%d: append after reopen: %v", l, err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if got := collect(t, r, 0); !reflect.DeepEqual(got, append(want, next)) {
			t.Fatalf("L=%d: after the append, replayed %d records, want %d then the new one", l, len(got), len(want))
		}
	}
}
