package persist_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"elink/internal/cluster"
	"elink/internal/metric"
	"elink/internal/persist"
	"elink/internal/stream"
	"elink/internal/topology"
)

// The engines behind the two seed snapshots: a bootstrapped one on a
// 3×4 grid and one still warming up on a 2×3 grid.
var (
	readyConfig  = stream.Config{Order: 2, Delta: 1.0, Slack: 0.1, Metric: metric.Euclidean{}, Seed: 7}
	warmupConfig = stream.Config{Order: 3, Delta: 1.0, Slack: 0.1, Metric: metric.Euclidean{}, Seed: 1}
)

func readyGraph() *topology.Graph  { return topology.NewGrid(3, 4) }
func warmupGraph() *topology.Graph { return topology.NewGrid(2, 3) }

// readyEngineBytes builds a real bootstrapped engine and returns its
// snapshot encoding — the richest state the codec must round-trip
// (models, maintainer, index, telemetry all populated).
func readyEngineBytes(t testing.TB) []byte {
	t.Helper()
	g := readyGraph()
	e, err := stream.New(g, readyConfig)
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 10; batch++ {
		readings := make([]stream.Reading, g.N())
		for u := range readings {
			base := float64(u%4) * 3
			readings[u] = stream.Reading{Node: topology.NodeID(u), Value: base + 0.1*float64(batch)}
		}
		if _, err := e.Ingest(readings); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := e.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// warmupEngineBytes returns a snapshot of an engine still warming up
// (no maintainer/index sections).
func warmupEngineBytes(t testing.TB) []byte {
	t.Helper()
	e, err := stream.New(warmupGraph(), warmupConfig)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest([]stream.Reading{{Node: 0, Value: 1}, {Node: 1, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := e.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTripDeterministic decodes a real snapshot and
// re-encodes it: the bytes must be identical. This pins both directions
// of the codec at once — every field decoded is every field encoded, in
// a canonical order.
func TestSnapshotRoundTripDeterministic(t *testing.T) {
	for name, raw := range map[string][]byte{
		"ready":  readyEngineBytes(t),
		"warmup": warmupEngineBytes(t),
	} {
		st, err := persist.ReadSnapshot(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		var buf bytes.Buffer
		n, err := persist.WriteSnapshot(&buf, st, nil)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if n != int64(len(raw)) || !bytes.Equal(buf.Bytes(), raw) {
			t.Errorf("%s: re-encoded snapshot differs (%d bytes vs %d)", name, n, len(raw))
		}
	}
}

// TestSnapshotDecodeRejectsDamage drives the decoder through the
// failure modes recovery must survive: truncation at every prefix
// length, a bit flip in every byte, and a wrong format version. All of
// them must produce an error (never a panic); bit flips that land in
// skippable padding-free sections must be caught by the CRC.
func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	raw := readyEngineBytes(t)

	t.Run("truncations", func(t *testing.T) {
		step := len(raw)/97 + 1 // sample prefixes, ends included
		for n := 0; n < len(raw); n += step {
			if _, err := persist.ReadSnapshot(bytes.NewReader(raw[:n])); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(raw))
			}
		}
		if _, err := persist.ReadSnapshot(bytes.NewReader(raw[:len(raw)-1])); err == nil {
			t.Fatal("dropping the final byte decoded successfully")
		}
	})

	t.Run("bitflips", func(t *testing.T) {
		step := len(raw)/997 + 1
		for off := 0; off < len(raw); off += step {
			mut := append([]byte(nil), raw...)
			mut[off] ^= 0x40
			st, err := persist.ReadSnapshot(bytes.NewReader(mut))
			if err == nil {
				// A flip inside a section payload must fail its CRC; the
				// only way a flip can decode is if it never reached a
				// checked region, which the framing makes impossible.
				t.Fatalf("bit flip at offset %d decoded successfully (%+v)", off, st.Config)
			}
		}
	})

	t.Run("header-bitflips", func(t *testing.T) {
		// Every bit of the file header and of every section's tag and
		// length, walking the frames: a damaged tag must not turn a
		// known section into a skipped unknown one.
		var hdrs []int
		for off := 0; off < 12; off++ {
			hdrs = append(hdrs, off)
		}
		for off := 12; off < len(raw); off += 5 + int(binary.LittleEndian.Uint32(raw[off+1:])) + 4 {
			for i := 0; i < 5; i++ {
				hdrs = append(hdrs, off+i)
			}
		}
		if len(hdrs) < 12+5*7 {
			t.Fatalf("walked %d header bytes, want the file header and at least 7 frames", len(hdrs))
		}
		for _, off := range hdrs {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), raw...)
				mut[off] ^= 1 << bit
				if _, err := persist.ReadSnapshot(bytes.NewReader(mut)); err == nil {
					t.Fatalf("flipping bit %d of header byte %d decoded successfully", bit, off)
				}
			}
		}
	})

	t.Run("wrong-version", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		mut[8] = 0xFE // version u32 little-endian starts after the 8-byte magic
		_, err := persist.ReadSnapshot(bytes.NewReader(mut))
		if !errors.Is(err, persist.ErrVersion) {
			t.Fatalf("future version error = %v, want ErrVersion", err)
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		mut[0] = 'X'
		_, err := persist.ReadSnapshot(bytes.NewReader(mut))
		if !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("bad magic error = %v, want ErrCorrupt", err)
		}
	})

	t.Run("empty", func(t *testing.T) {
		if _, err := persist.ReadSnapshot(bytes.NewReader(nil)); err == nil {
			t.Fatal("empty input decoded successfully")
		}
	})
}

// TestSnapshotSkipsUnknownSections pins the additive-evolution contract:
// a snapshot carrying a section tag this build does not know decodes
// fine as long as the section's framing and CRC are intact.
func TestSnapshotSkipsUnknownSections(t *testing.T) {
	raw := warmupEngineBytes(t)
	// Splice an unknown section (tag 0x7E) right before the end marker.
	// Sections are framed [tag u8][len u32][payload][crc u32]; the end
	// marker is the last 10 bytes (tag + len 0 + crc of empty).
	endLen := 1 + 4 + 4
	payload := []byte("future-field")
	section := make([]byte, 0, 9+len(payload))
	section = append(section, 0x7E)
	section = append(section, byte(len(payload)), 0, 0, 0)
	section = append(section, payload...)
	crc := crc32IEEE(section) // tag, length and payload
	section = append(section, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))

	spliced := append([]byte(nil), raw[:len(raw)-endLen]...)
	spliced = append(spliced, section...)
	spliced = append(spliced, raw[len(raw)-endLen:]...)

	st, err := persist.ReadSnapshot(bytes.NewReader(spliced))
	if err != nil {
		t.Fatalf("decode with unknown section: %v", err)
	}
	if st.Config.Nodes != 6 {
		t.Errorf("decoded %d nodes, want 6", st.Config.Nodes)
	}
}

func crc32IEEE(b []byte) uint32 {
	const poly = 0xedb88320
	crc := ^uint32(0)
	for _, v := range b {
		crc ^= uint32(v)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// resealSections returns data with every complete section's CRC
// recomputed over its (possibly mutated) tag, length and payload. The
// 12-byte header and any trailing partial section are kept as they are.
func resealSections(data []byte) []byte {
	const hdrLen, frameLen = 12, 5
	if len(data) < hdrLen {
		return data
	}
	out := append([]byte(nil), data[:hdrLen]...)
	rest := data[hdrLen:]
	for len(rest) >= frameLen+4 {
		n := binary.LittleEndian.Uint32(rest[1:frameLen])
		if uint64(n) > uint64(len(rest)-frameLen-4) {
			break
		}
		end := frameLen + int(n)
		out = append(out, rest[:end]...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(rest[:end]))
		rest = rest[end+4:]
	}
	return append(out, rest...)
}

// TestResealSectionsReachesDecoders checks the fuzz helper: resealing an
// intact snapshot changes nothing, and a payload byte flipped then
// resealed gets past the CRC check.
func TestResealSectionsReachesDecoders(t *testing.T) {
	ready := readyEngineBytes(t)
	if !bytes.Equal(resealSections(ready), ready) {
		t.Fatal("resealing an intact snapshot changed it")
	}
	mut := append([]byte(nil), ready...)
	mut[len(mut)/3] ^= 0xFF
	if _, err := persist.ReadSnapshot(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("flipped snapshot: err %v, want a CRC mismatch", err)
	}
	if _, err := persist.ReadSnapshot(bytes.NewReader(resealSections(mut))); err != nil && strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("resealed snapshot still fails its CRC: %v", err)
	}
}

// TestRestoreRejectsBadState restores sealed snapshots whose decoded
// state is damaged where only the engine can tell: in the features the
// maintainer and index are rebuilt over or the maintainer's advertised
// root features, or in the index's clustering.
// Each must be an error, not a panic, and leave the engine untouched.
// The clustering cases damage a two-cluster split of the grid, which
// restores cleanly undamaged.
func TestRestoreRejectsBadState(t *testing.T) {
	raw := readyEngineBytes(t)
	g := readyGraph()
	n := topology.NodeID(g.N())
	restore := func(damage func(st *persist.EngineState)) (*stream.Engine, error) {
		st, err := persist.ReadSnapshot(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		// Rows 0 and 1 of the 3×4 grid split into two connected halves.
		st.IndexClustering = &cluster.Clustering{
			Members: [][]topology.NodeID{{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}},
			Roots:   []topology.NodeID{0, 6},
		}
		damage(st)
		var buf bytes.Buffer
		if _, err := persist.WriteSnapshot(&buf, st, nil); err != nil {
			t.Fatal(err)
		}
		e, err := stream.New(g, readyConfig)
		if err != nil {
			t.Fatal(err)
		}
		return e, e.Restore(&buf)
	}
	if _, err := restore(func(*persist.EngineState) {}); err != nil {
		t.Fatalf("undamaged split: %v", err)
	}
	for name, damage := range map[string]func(st *persist.EngineState){
		"NaN feature": func(st *persist.EngineState) { st.Feats[3] = metric.Feature{math.NaN(), 0} },
		"mixed feature dimensions": func(st *persist.EngineState) {
			st.Feats[2] = append(st.Feats[2].Clone(), 1)
		},
		"mixed advertised root-feature dimensions": func(st *persist.EngineState) {
			st.Maint.RootFeatAt[0] = metric.Feature{1, 2, 3}
		},
		"member out of range": func(st *persist.EngineState) { st.IndexClustering.Members[1][5] = n },
		"empty cluster": func(st *persist.EngineState) {
			c := st.IndexClustering
			c.Members, c.Roots = append(c.Members, nil), append(c.Roots, -1)
		},
		"node in two clusters": func(st *persist.EngineState) {
			st.IndexClustering.Members[0] = append(st.IndexClustering.Members[0], 6)
		},
		"root not a member": func(st *persist.EngineState) { st.IndexClustering.Roots[0] = 6 },
		"disconnected cluster": func(st *persist.EngineState) {
			// Opposite corners of the grid, and the connected rest.
			st.IndexClustering.Members = [][]topology.NodeID{{0, n - 1}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
			st.IndexClustering.Roots = []topology.NodeID{0, 1}
		},
	} {
		e, err := restore(damage)
		if err == nil {
			t.Errorf("%s: restored", name)
		} else if e.Ready() || e.Seq() != 0 {
			t.Errorf("%s: rejected restore changed the engine (ready %v, seq %d)", name, e.Ready(), e.Seq())
		}
	}
}

// FuzzSnapshotDecode proves the decoder never panics: arbitrary bytes
// either decode into a state that re-encodes cleanly or fail with an
// error. Truncations and bit flips of two real snapshots seed the
// corpus so the fuzzer starts deep inside the format. Each input is also
// decoded with its section CRCs re-sealed, so mutations reach the
// section decoders instead of dying at the checksum. A state that
// decodes is also restored into a fresh engine of its seed's
// configuration; a restore that succeeds must leave an index that
// validates and answers a range query.
func FuzzSnapshotDecode(f *testing.F) {
	ready := readyEngineBytes(f)
	warm := warmupEngineBytes(f)
	f.Add(ready)
	f.Add(warm)
	f.Add(ready[:len(ready)/2])
	f.Add([]byte("ELNKSNAP"))
	f.Add([]byte{})
	mut := append([]byte(nil), ready...)
	mut[len(mut)/3] ^= 0xFF
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotDecode(t, data)
		if sealed := resealSections(data); !bytes.Equal(sealed, data) {
			checkSnapshotDecode(t, sealed)
		}
	})
}

func checkSnapshotDecode(t *testing.T, data []byte) {
	t.Helper()
	st, err := persist.ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		if !strings.Contains(err.Error(), "persist:") {
			t.Errorf("error %v does not carry the package prefix", err)
		}
		return
	}
	// Whatever decoded must re-encode without panicking.
	if _, err := persist.WriteSnapshot(&bytes.Buffer{}, st, nil); err != nil {
		t.Errorf("decoded state does not re-encode: %v", err)
	}
	checkRestore(t, data, st.Config.Nodes)
}

// checkRestore restores a decodable snapshot into a fresh engine built
// like the seed with the same node count. Restore itself rejects any
// other configuration difference.
func checkRestore(t *testing.T, data []byte, nodes int) {
	t.Helper()
	g, cfg := readyGraph(), readyConfig
	if nodes == warmupGraph().N() {
		g, cfg = warmupGraph(), warmupConfig
	} else if nodes != g.N() {
		return
	}
	e, err := stream.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(bytes.NewReader(data)); err != nil || !e.Ready() {
		return
	}
	snap := e.Snapshot()
	if err := snap.Index.Validate(); err != nil {
		t.Errorf("restored index: %v", err)
	}
	if _, err := e.RangeQuery(snap.Features[0], 1, 0); err != nil {
		t.Errorf("range query on the restored engine: %v", err)
	}
}
