package persist

import (
	"fmt"
	"io"
	"time"

	"elink/internal/ar"
	"elink/internal/cluster"
	"elink/internal/metric"
	"elink/internal/obs"
	"elink/internal/topology"
	"elink/internal/update"
)

func topoNode(v int64) topology.NodeID { return topology.NodeID(v) }

// ConfigState is the engine-configuration fingerprint embedded in every
// snapshot. Restore refuses to load state into an engine whose
// configuration differs — replaying a WAL against different δ/slack/seed
// would silently diverge from the pre-crash trajectory instead of
// reproducing it.
type ConfigState struct {
	Nodes               int
	Order               int
	Delta               float64
	Slack               float64
	Seed                int64
	Mode                int
	Policy              int
	FragmentationFactor float64
	Period              int
	WarmupObs           int
}

// EngineState is the complete serializable state of a stream.Engine.
// internal/stream assembles it under the engine lock and applies it on
// restore; this package only encodes and decodes it.
type EngineState struct {
	Config ConfigState

	// Seq is the engine's ingest sequence number — the count of
	// successfully applied batches. WAL records carry the same counter,
	// which is how recovery knows where the snapshot ends and the tail
	// begins.
	Seq            int64
	Epoch          int64
	SinceRecluster int64
	Ready          bool
	Warm           int
	FeatCovered    int

	Models  []ar.State // nil for Order == 0 (feature-push) engines
	Feats   []metric.Feature
	FeatSet []bool

	// Maint is the maintainer's state and IndexClustering the clustering
	// the index was last built over, in its cluster order; both are nil
	// before bootstrap. Their features are Feats. IndexClustering carries
	// Members and Roots only, which is all index.Build reads.
	Maint           *update.State
	IndexClustering *cluster.Clustering

	Readings    int64
	Updates     int64
	Reclusters  int64
	Rebuilds    int64
	RefreshMsgs int64

	Screening      update.Counters
	MaintMsgs      cluster.Stats
	BootstrapStats cluster.Stats
	ReclusterStats cluster.Stats
	RebuildStats   cluster.Stats
}

// SnapshotInfo summarizes one written snapshot.
type SnapshotInfo struct {
	Bytes    int64         `json:"bytes"`
	Seq      int64         `json:"seq"`
	Epoch    int64         `json:"epoch"`
	Duration time.Duration `json:"durationNs"`
}

// WriteSnapshot encodes st to w in the versioned section format and
// returns the number of bytes written. Each section's encode+write is
// traced as an "enc-<section>" child of parent, so a slow snapshot shows
// which section (models, index, ...) carried the bytes. A nil parent
// disables tracing; span methods are nil-safe.
func WriteSnapshot(w io.Writer, st *EngineState, parent *obs.Span) (int64, error) {
	var total int64
	hdr := make([]byte, 0, 12)
	hdr = append(hdr, snapMagic...)
	var e enc
	e.b = hdr
	e.u32(SnapshotVersion)
	n, err := w.Write(e.b)
	total += int64(n)
	if err != nil {
		return total, err
	}

	write := func(name string, tag uint8, encode func() []byte) error {
		if err != nil {
			return err
		}
		sp := parent.Child("enc-" + name)
		defer sp.Finish()
		var wn int64
		wn, err = writeSection(w, tag, encode())
		total += wn
		return err
	}

	if err := write("meta", secMeta, func() []byte { return encodeMeta(st) }); err != nil {
		return total, err
	}
	if err := write("models", secModels, func() []byte { return encodeModels(st.Models) }); err != nil {
		return total, err
	}
	if err := write("feats", secFeats, func() []byte { return encodeFeats(st) }); err != nil {
		return total, err
	}
	if st.Maint != nil {
		if err := write("maint", secMaint, func() []byte { return encodeMaint(st.Maint) }); err != nil {
			return total, err
		}
	}
	if st.IndexClustering != nil {
		if err := write("index", secIndex, func() []byte { return encodeIndex(st.IndexClustering) }); err != nil {
			return total, err
		}
	}
	if err := write("telem", secTelem, func() []byte { return encodeTelem(st) }); err != nil {
		return total, err
	}
	if err := write("end", secEnd, func() []byte { return nil }); err != nil {
		return total, err
	}
	return total, nil
}

// ReadSnapshot decodes a snapshot from r. It returns ErrVersion for
// formats newer than this build and ErrCorrupt (wrapped) for any
// malformed input; it never panics.
func ReadSnapshot(r io.Reader) (*EngineState, error) {
	hdr := make([]byte, len(snapMagic)+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, corruptf("truncated snapshot header")
	}
	if string(hdr[:len(snapMagic)]) != snapMagic {
		return nil, corruptf("bad magic %q", hdr[:len(snapMagic)])
	}
	ver := dec{b: hdr[len(snapMagic):]}
	if v := ver.u32(); v != SnapshotVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads %d", ErrVersion, v, SnapshotVersion)
	}

	st := &EngineState{}
	seen := make(map[uint8]bool)
	for {
		tag, payload, err := readSection(r)
		if err != nil {
			return nil, err
		}
		if tag == secEnd {
			break
		}
		if seen[tag] {
			return nil, corruptf("duplicate section %d", tag)
		}
		seen[tag] = true
		d := dec{b: payload}
		switch tag {
		case secMeta:
			decodeMeta(&d, st)
		case secModels:
			st.Models = decodeModels(&d)
		case secFeats:
			decodeFeats(&d, st)
		case secMaint:
			st.Maint = decodeMaint(&d)
		case secIndex:
			st.IndexClustering = decodeIndex(&d)
		case secTelem:
			decodeTelem(&d, st)
		default:
			// Unknown (future, additive) section: skip it. Its CRC was
			// already verified.
			continue
		}
		if d.err != nil {
			return nil, fmt.Errorf("section %d: %w", tag, d.err)
		}
	}
	if !seen[secMeta] || !seen[secFeats] {
		return nil, corruptf("missing required sections (meta %v, feats %v)", seen[secMeta], seen[secFeats])
	}
	if st.Ready && (st.Maint == nil || st.IndexClustering == nil) {
		return nil, corruptf("ready engine without maintainer/index sections")
	}
	return st, nil
}

func encodeMeta(st *EngineState) []byte {
	var e enc
	e.i64(int64(st.Config.Nodes))
	e.i64(int64(st.Config.Order))
	e.f64(st.Config.Delta)
	e.f64(st.Config.Slack)
	e.i64(st.Config.Seed)
	e.i64(int64(st.Config.Mode))
	e.i64(int64(st.Config.Policy))
	e.f64(st.Config.FragmentationFactor)
	e.i64(int64(st.Config.Period))
	e.i64(int64(st.Config.WarmupObs))
	e.i64(st.Seq)
	e.i64(st.Epoch)
	e.i64(st.SinceRecluster)
	e.bool(st.Ready)
	e.i64(int64(st.Warm))
	e.i64(int64(st.FeatCovered))
	return e.b
}

func decodeMeta(d *dec, st *EngineState) {
	st.Config.Nodes = int(d.i64())
	st.Config.Order = int(d.i64())
	st.Config.Delta = d.f64()
	st.Config.Slack = d.f64()
	st.Config.Seed = d.i64()
	st.Config.Mode = int(d.i64())
	st.Config.Policy = int(d.i64())
	st.Config.FragmentationFactor = d.f64()
	st.Config.Period = int(d.i64())
	st.Config.WarmupObs = int(d.i64())
	st.Seq = d.i64()
	st.Epoch = d.i64()
	st.SinceRecluster = d.i64()
	st.Ready = d.bool()
	st.Warm = int(d.i64())
	st.FeatCovered = int(d.i64())
}

func encodeModels(models []ar.State) []byte {
	var e enc
	e.u32(uint32(len(models)))
	for _, m := range models {
		e.i64(int64(m.Order))
		e.floats(m.Coef)
		e.floats(m.P)
		e.floats(m.Lags)
		e.i64(int64(m.Seen))
	}
	return e.b
}

func decodeModels(d *dec) []ar.State {
	n := d.count(8 + 3*4 + 8) // per model: order + three slice headers + seen
	if d.err != nil || n == 0 {
		return nil
	}
	models := make([]ar.State, n)
	for i := range models {
		models[i] = ar.State{
			Order: int(d.i64()),
			Coef:  d.floats(),
			P:     d.floats(),
			Lags:  d.floats(),
			Seen:  int(d.i64()),
		}
		if d.err != nil {
			return nil
		}
	}
	return models
}

func encodeFeats(st *EngineState) []byte {
	var e enc
	e.features(st.Feats)
	e.u32(uint32(len(st.FeatSet)))
	for _, b := range st.FeatSet {
		e.bool(b)
	}
	return e.b
}

func decodeFeats(d *dec, st *EngineState) {
	st.Feats = d.features()
	n := d.count(1)
	if d.err != nil {
		return
	}
	st.FeatSet = make([]bool, n)
	for i := range st.FeatSet {
		st.FeatSet[i] = d.bool()
	}
}

func encodeMaint(m *update.State) []byte {
	var e enc
	e.u32(uint32(len(m.Clusters)))
	for _, cs := range m.Clusters {
		e.i64(int64(cs.ID))
		e.i64(int64(cs.Root))
		e.nodes(cs.Members)
	}
	e.i64(int64(m.NextID))
	e.nodes(m.Parent)
	ds := make([]int64, len(m.Depth))
	for i, v := range m.Depth {
		ds[i] = int64(v)
	}
	e.ints(ds)
	e.features(m.RootFeatAt)
	e.stats(m.Stats)
	encodeCounters(&e, m.Counters)
	e.i64(int64(m.InitialClusters))
	return e.b
}

func decodeMaint(d *dec) *update.State {
	m := &update.State{}
	n := d.count(8 + 8 + 4)
	if d.err != nil {
		return nil
	}
	m.Clusters = make([]update.ClusterState, n)
	for i := range m.Clusters {
		m.Clusters[i].ID = int(d.i64())
		m.Clusters[i].Root = topoNode(d.i64())
		m.Clusters[i].Members = d.nodes()
		if d.err != nil {
			return nil
		}
	}
	m.NextID = int(d.i64())
	m.Parent = d.nodes()
	for _, v := range d.ints() {
		m.Depth = append(m.Depth, int(v))
	}
	m.RootFeatAt = d.features()
	m.Stats = d.stats()
	m.Counters = decodeCounters(d)
	m.InitialClusters = int(d.i64())
	if d.err != nil {
		return nil
	}
	return m
}

// encodeIndex stores the clustering the index was last built over:
// each cluster's root and members, in the index's order. Restore hands
// it back to index.Build, which re-derives the trees, radii and backbone.
func encodeIndex(c *cluster.Clustering) []byte {
	var e enc
	e.u32(uint32(len(c.Members)))
	for ci, members := range c.Members {
		e.i64(int64(c.Roots[ci]))
		e.nodes(members)
	}
	return e.b
}

func decodeIndex(d *dec) *cluster.Clustering {
	n := d.count(8 + 4) // per cluster: root + members header
	if d.err != nil {
		return nil
	}
	c := &cluster.Clustering{Members: make([][]topology.NodeID, n), Roots: make([]topology.NodeID, n)}
	for ci := range c.Members {
		c.Roots[ci] = topoNode(d.i64())
		c.Members[ci] = d.nodes()
	}
	if d.err != nil {
		return nil
	}
	return c
}

func encodeTelem(st *EngineState) []byte {
	var e enc
	e.i64(st.Readings)
	e.i64(st.Updates)
	e.i64(st.Reclusters)
	e.i64(st.Rebuilds)
	e.i64(st.RefreshMsgs)
	encodeCounters(&e, st.Screening)
	e.stats(st.MaintMsgs)
	e.stats(st.BootstrapStats)
	e.stats(st.ReclusterStats)
	e.stats(st.RebuildStats)
	return e.b
}

func decodeTelem(d *dec, st *EngineState) {
	st.Readings = d.i64()
	st.Updates = d.i64()
	st.Reclusters = d.i64()
	st.Rebuilds = d.i64()
	st.RefreshMsgs = d.i64()
	st.Screening = decodeCounters(d)
	st.MaintMsgs = d.stats()
	st.BootstrapStats = d.stats()
	st.ReclusterStats = d.stats()
	st.RebuildStats = d.stats()
}

func encodeCounters(e *enc, c update.Counters) {
	e.i64(int64(c.Updates))
	e.i64(int64(c.ScreenedA1))
	e.i64(int64(c.ScreenedA2))
	e.i64(int64(c.ScreenedA3))
	e.i64(int64(c.RootFetches))
	e.i64(int64(c.Detaches))
	e.i64(int64(c.Rejoins))
	e.i64(int64(c.Singletons))
	e.i64(int64(c.RootDrifts))
}

func decodeCounters(d *dec) update.Counters {
	return update.Counters{
		Updates:     int(d.i64()),
		ScreenedA1:  int(d.i64()),
		ScreenedA2:  int(d.i64()),
		ScreenedA3:  int(d.i64()),
		RootFetches: int(d.i64()),
		Detaches:    int(d.i64()),
		Rejoins:     int(d.i64()),
		Singletons:  int(d.i64()),
		RootDrifts:  int(d.i64()),
	}
}
