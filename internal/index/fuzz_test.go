package index_test

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"elink/internal/cluster"
	"elink/internal/index"
	"elink/internal/metric"
	"elink/internal/query"
	"elink/internal/topology"
)

// The fuzz target decodes its input into an index.State over a fixed
// six-node line, 0-1-2-3-4-5, under the Euclidean metric. Every count is
// one byte, every id or depth one signed byte (so ids fall out of range
// and go negative), and every float one byte: a multiple of 1/4, +Inf,
// NaN, or — for radii only — a tag followed by the raw 8-byte value. On
// quarter-grid features of dimension ≤ 2 every pruning comparison a
// query makes is exact, so a range answer must equal brute force to the
// node.

const (
	fuzzRaw = 0x7e // radius: the raw float64 bits follow
	fuzzInf = 0x7f
	fuzzNaN = 0x80
)

type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *fuzzReader) count(limit int) int { return int(r.byte()) % limit }
func (r *fuzzReader) id() topology.NodeID { return topology.NodeID(int8(r.byte())) }

func (r *fuzzReader) ids(limit int) []topology.NodeID {
	var out []topology.NodeID
	for i := r.count(limit); i > 0; i-- {
		out = append(out, r.id())
	}
	return out
}

func (r *fuzzReader) float(raw bool) float64 {
	switch b := r.byte(); {
	case b == fuzzInf:
		return math.Inf(1)
	case b == fuzzNaN:
		return math.NaN()
	case b == fuzzRaw && raw:
		var buf [8]byte
		for i := range buf {
			buf[i] = r.byte()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	default:
		return float64(int8(b)) / 4
	}
}

func decodeFuzzState(data []byte, n int) index.State {
	r := fuzzReader(data)
	dim := r.count(3)
	st := index.State{Features: make([]metric.Feature, n), ClusterOf: make([]int, n)}
	for u := range st.Features {
		st.Features[u] = make(metric.Feature, dim)
		for i := range st.Features[u] {
			st.Features[u][i] = r.float(false)
		}
	}
	for u := range st.ClusterOf {
		st.ClusterOf[u] = int(int8(r.byte()))
	}
	st.Clusters = make([]index.ClusterIndexState, r.count(8))
	for ci := range st.Clusters {
		cs := &st.Clusters[ci]
		cs.Root = r.id()
		cs.Members = r.ids(10)
		cs.Entries = make([]index.EntryState, r.count(10))
		for i := range cs.Entries {
			cs.Entries[i] = index.EntryState{ID: r.id(), Parent: r.id(), Children: r.ids(6), Radius: r.float(true), Depth: int(int8(r.byte()))}
		}
	}
	st.Backbone = make([]index.BackboneEdge, r.count(8))
	for i := range st.Backbone {
		st.Backbone[i] = index.BackboneEdge{A: r.id(), B: r.id(), Hops: int(int8(r.byte()))}
	}
	return st
}

// encodeFuzzState is decodeFuzzState's inverse for the states seeded
// here: small ids and counts, and features on the quarter grid.
func encodeFuzzState(st index.State) []byte {
	var out []byte
	float := func(x float64, raw bool) {
		switch q := x * 4; {
		case math.IsInf(x, 1):
			out = append(out, fuzzInf)
		case math.IsNaN(x):
			out = append(out, fuzzNaN)
		case q == math.Trunc(q) && q > -128 && q < fuzzRaw:
			out = append(out, byte(int8(q)))
		case raw:
			out = append(out, fuzzRaw)
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		default:
			panic("feature off the quarter grid")
		}
	}
	ids := func(s []topology.NodeID) {
		out = append(out, byte(len(s)))
		for _, u := range s {
			out = append(out, byte(int8(u)))
		}
	}
	out = append(out, byte(len(st.Features[0])))
	for _, f := range st.Features {
		for _, x := range f {
			float(x, false)
		}
	}
	for _, ci := range st.ClusterOf {
		out = append(out, byte(int8(ci)))
	}
	out = append(out, byte(len(st.Clusters)))
	for _, cs := range st.Clusters {
		out = append(out, byte(int8(cs.Root)))
		ids(cs.Members)
		out = append(out, byte(len(cs.Entries)))
		for _, es := range cs.Entries {
			out = append(out, byte(int8(es.ID)), byte(int8(es.Parent)))
			ids(es.Children)
			float(es.Radius, true)
			out = append(out, byte(int8(es.Depth)))
		}
	}
	out = append(out, byte(len(st.Backbone)))
	for _, e := range st.Backbone {
		out = append(out, byte(int8(e.A)), byte(int8(e.B)), byte(int8(e.Hops)))
	}
	return out
}

// fuzzSeeds returns the encoded state of lineSetup's index, built under
// the fuzz target's metric, and that state with each of
// index.MalformedTrees applied.
func fuzzSeeds(tb testing.TB, g *topology.Graph) (valid []byte, malformed [][]byte) {
	feats := []metric.Feature{{0}, {1}, {2}, {10}, {11}, {12}}
	idx, err := index.Build(g, cluster.FromRoots([]topology.NodeID{0, 0, 0, 3, 3, 3}), feats, metric.Euclidean{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, corrupt := range index.MalformedTrees {
		st := idx.State()
		corrupt(&st)
		malformed = append(malformed, encodeFuzzState(st))
	}
	return encodeFuzzState(idx.State()), malformed
}

// FuzzIndexFromState feeds arbitrary states to FromState. Each must be
// rejected with an error, or restore an index that passes Validate and
// answers every range query exactly as brute force does; path queries
// must return verifiable paths. Nothing may panic or recurse without
// bound.
func FuzzIndexFromState(f *testing.F) {
	g := topology.NewGrid(1, 6)
	valid, malformed := fuzzSeeds(f, g)
	f.Add(valid)
	for _, seed := range malformed {
		f.Add(seed)
	}
	m := metric.Euclidean{}
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := index.FromState(g, m, decodeFuzzState(data, g.N()))
		if err != nil {
			return
		}
		if err := idx.Validate(); err != nil {
			t.Fatalf("restored index fails Validate: %v", err)
		}
		for u, q := range idx.Features {
			for _, r := range []float64{0, 0.5, 1, 2.5, 100} {
				got := query.Range(idx, q, r, topology.NodeID(u), nil).Matches
				if want := query.BruteForce(idx.Features, m, q, r); !slices.Equal(got, want) {
					t.Fatalf("Range(F_%d, %v) = %v, brute force %v", u, r, got, want)
				}
			}
			res := query.Path(idx, q, 1, topology.NodeID(u), topology.NodeID(len(idx.Features)-1-u), nil)
			if res.Found && !query.VerifyPath(g, idx.Features, m, q, 1, res.Path) {
				t.Fatalf("Path from %d returned an unsafe or broken path %v", u, res.Path)
			}
		}
	})
}

// TestFuzzSeedsRoundTrip checks the seed codec: the valid seed restores
// and the malformed ones are rejected, so the corpus starts on both sides
// of FromState's checks.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	g := topology.NewGrid(1, 6)
	valid, malformed := fuzzSeeds(t, g)
	if _, err := index.FromState(g, metric.Euclidean{}, decodeFuzzState(valid, g.N())); err != nil {
		t.Errorf("valid seed rejected: %v", err)
	}
	for i, seed := range malformed {
		if _, err := index.FromState(g, metric.Euclidean{}, decodeFuzzState(seed, g.N())); err == nil {
			t.Errorf("malformed seed %d accepted", i)
		}
	}
}
