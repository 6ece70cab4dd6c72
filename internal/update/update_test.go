package update

import (
	"math/rand"
	"reflect"
	"testing"

	"elink/internal/cluster"
	"elink/internal/metric"
	"elink/internal/topology"
)

// twoClusterSetup builds a path graph 0-1-2-3-4-5 with features forming
// two tight groups, clustered as {0,1,2} rooted at 0 and {3,4,5} rooted
// at 3.
func twoClusterSetup(t *testing.T, cfg Config) (*topology.Graph, *Maintainer) {
	t.Helper()
	g := topology.NewGrid(1, 6)
	feats := []metric.Feature{{0}, {0.1}, {0.2}, {10}, {10.1}, {10.2}}
	c := cluster.FromRoots([]topology.NodeID{0, 0, 0, 3, 3, 3})
	m, err := NewMaintainer(g, c, feats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

func TestScreenA1SilencesSmallUpdates(t *testing.T) {
	_, m := twoClusterSetup(t, Config{Delta: 2, Slack: 0.5, Metric: metric.Scalar{}})
	m.Update(1, metric.Feature{0.3}) // moved 0.2 <= slack
	if got := m.Stats().Messages; got != 0 {
		t.Errorf("A1-screened update cost %d messages, want 0", got)
	}
	if c := m.CountersSnapshot(); c.ScreenedA1 != 1 {
		t.Errorf("counters = %+v, want one A1 screen", c)
	}
}

func TestScreenA3SilencesInsideCluster(t *testing.T) {
	_, m := twoClusterSetup(t, Config{Delta: 2, Slack: 0.1, Metric: metric.Scalar{}})
	// Node 2: 0.2 -> 0.9. A1 fails (0.7 > 0.1); A2 fails (dist to root
	// grew 0.9-0.2=0.7 > 0.1); A3 holds (0.9 <= 2-0.1).
	m.Update(2, metric.Feature{0.9})
	if got := m.Stats().Messages; got != 0 {
		t.Errorf("A3-screened update cost %d messages, want 0", got)
	}
	if c := m.CountersSnapshot(); c.ScreenedA3 != 1 {
		t.Errorf("counters = %+v, want one A3 screen", c)
	}
}

func TestFullViolationFetchesRoot(t *testing.T) {
	_, m := twoClusterSetup(t, Config{Delta: 2, Slack: 0.1, Metric: metric.Scalar{}})
	// Node 2 (depth 2 in the tree 0-1-2) jumps to 1.95: all screens fail
	// (A3: 1.95 > 1.9), but the fresh root feature still admits it.
	m.Update(2, metric.Feature{1.95})
	c := m.CountersSnapshot()
	if c.RootFetches != 1 || c.Detaches != 0 {
		t.Errorf("counters = %+v, want one fetch and no detach", c)
	}
	// 2 hops up + 2 hops back.
	if got := m.Stats().Messages; got != 4 {
		t.Errorf("fetch cost %d messages, want 4", got)
	}
	if m.NumClusters() != 2 {
		t.Errorf("NumClusters = %d, want 2", m.NumClusters())
	}
}

func TestDetachAndRejoinNeighbourCluster(t *testing.T) {
	_, m := twoClusterSetup(t, Config{Delta: 2, Slack: 0.1, Metric: metric.Scalar{}})
	// Node 2 jumps right next to cluster {3,4,5}: it must leave cluster 0
	// and be adopted via its neighbour 3.
	m.Update(2, metric.Feature{9.8})
	c := m.CountersSnapshot()
	if c.Detaches != 1 || c.Rejoins != 1 {
		t.Errorf("counters = %+v, want one detach and one rejoin", c)
	}
	cl := m.Clustering()
	if cl.ClusterOf(2) != cl.ClusterOf(3) {
		t.Error("node 2 should have joined node 3's cluster")
	}
	if m.NumClusters() != 2 {
		t.Errorf("NumClusters = %d, want 2", m.NumClusters())
	}
}

func TestDetachToSingleton(t *testing.T) {
	_, m := twoClusterSetup(t, Config{Delta: 2, Slack: 0.1, Metric: metric.Scalar{}})
	// Node 2 jumps somewhere neither cluster can host.
	m.Update(2, metric.Feature{5})
	c := m.CountersSnapshot()
	if c.Detaches != 1 || c.Singletons != 1 {
		t.Errorf("counters = %+v, want one detach into a singleton", c)
	}
	if m.NumClusters() != 3 {
		t.Errorf("NumClusters = %d, want 3", m.NumClusters())
	}
}

func TestDetachMidChainStrandsTail(t *testing.T) {
	_, m := twoClusterSetup(t, Config{Delta: 2, Slack: 0.1, Metric: metric.Scalar{}})
	// Node 1 is the bridge between 0 and 2. When it leaves, node 2 is
	// stranded from root 0 and must be re-rooted.
	m.Update(1, metric.Feature{5})
	cl := m.Clustering()
	if cl.ClusterOf(2) == cl.ClusterOf(0) {
		t.Error("node 2 cannot remain in node 0's cluster without connectivity")
	}
	// Everything still partitions the graph.
	if err := clValid(cl, m); err != nil {
		t.Error(err)
	}
}

func clValid(cl *cluster.Clustering, m *Maintainer) error {
	seen := 0
	for _, mem := range cl.Members {
		seen += len(mem)
	}
	if seen != len(cl.Assign) {
		return errDup
	}
	return nil
}

var errDup = errTest("cluster membership does not partition the nodes")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestRootDriftBroadcasts(t *testing.T) {
	_, m := twoClusterSetup(t, Config{Delta: 2, Slack: 0.1, Metric: metric.Scalar{}})
	// Root 0 drifts by more than Δ: broadcast to members 1 and 2.
	m.Update(0, metric.Feature{0.5})
	c := m.CountersSnapshot()
	if c.RootDrifts != 1 {
		t.Errorf("counters = %+v, want one root drift", c)
	}
	if got := m.Stats().Breakdown[KindBroadcast]; got != 2 {
		t.Errorf("broadcast cost = %d, want 2", got)
	}
}

func TestRootDriftWithinSlackSilent(t *testing.T) {
	_, m := twoClusterSetup(t, Config{Delta: 2, Slack: 0.5, Metric: metric.Scalar{}})
	m.Update(0, metric.Feature{0.3})
	if m.Stats().Messages != 0 {
		t.Error("root drift within slack should be silent")
	}
}

func TestRootDriftEvictsFarMembers(t *testing.T) {
	_, m := twoClusterSetup(t, Config{Delta: 2, Slack: 0.1, Metric: metric.Scalar{}})
	// Root 0 jumps to 2.5: member at 0.1 and 0.2 are now > δ? No:
	// |2.5-0.1| = 2.4 > 2 -> both 1 and 2 must leave.
	m.Update(0, metric.Feature{2.5})
	cl := m.Clustering()
	if cl.ClusterOf(1) == cl.ClusterOf(0) {
		t.Error("node 1 should have been evicted")
	}
	c := m.CountersSnapshot()
	if c.Detaches < 1 {
		t.Errorf("counters = %+v, want evictions", c)
	}
}

func TestMoreSlackFewerMessages(t *testing.T) {
	// Stream identical random walks through maintainers with increasing
	// slack: message counts must be non-increasing.
	g := topology.NewGrid(4, 4)
	rng := rand.New(rand.NewSource(7))
	feats := make([]metric.Feature, g.N())
	for i := range feats {
		feats[i] = metric.Feature{rng.Float64() * 0.2}
	}
	base := cluster.FromRoots(make([]topology.NodeID, g.N())) // all rooted at 0
	walk := make([][2]float64, 300)
	for i := range walk {
		walk[i] = [2]float64{float64(rng.Intn(g.N())), rng.NormFloat64() * 0.15}
	}
	run := func(slack float64) int64 {
		m, err := NewMaintainer(g, base, feats, Config{Delta: 2, Slack: slack, Metric: metric.Scalar{}})
		if err != nil {
			t.Fatal(err)
		}
		cur := make([]float64, g.N())
		for i := range cur {
			cur[i] = feats[i][0]
		}
		for _, w := range walk {
			u := topology.NodeID(int(w[0]))
			cur[u] += w[1]
			m.Update(u, metric.Feature{cur[u]})
		}
		return m.Stats().Messages
	}
	prev := run(0.05)
	for _, s := range []float64{0.2, 0.5, 0.9} {
		cur := run(s)
		if cur > prev {
			t.Errorf("slack %v cost %d messages, more than smaller slack's %d", s, cur, prev)
		}
		prev = cur
	}
}

func TestCentralizedUpdaterShipsOnViolation(t *testing.T) {
	g := topology.NewGrid(1, 4)
	feats := []metric.Feature{{0}, {0}, {0}, {0}}
	c := NewCentralizedUpdater(g, 0, feats, Config{Delta: 2, Slack: 0.5, Metric: metric.Scalar{}}, 2)
	c.Update(3, metric.Feature{0.2}) // screened
	if c.Stats().Messages != 0 || c.Shipped() != 0 {
		t.Error("within-slack update should not ship")
	}
	c.Update(3, metric.Feature{1.5}) // violates: ship 3 hops x 2 coeffs
	if got := c.Stats().Messages; got != 6 {
		t.Errorf("ship cost = %d, want 6", got)
	}
	if c.Shipped() != 1 {
		t.Errorf("Shipped = %d, want 1", c.Shipped())
	}
}

func TestELinkUpdateBeatsCentralized(t *testing.T) {
	// The headline of Fig 10: the in-network screens silence most updates
	// that the centralized scheme must ship.
	g := topology.NewGrid(5, 5)
	rng := rand.New(rand.NewSource(3))
	feats := make([]metric.Feature, g.N())
	for i := range feats {
		feats[i] = metric.Feature{rng.Float64() * 0.1}
	}
	base := cluster.FromRoots(make([]topology.NodeID, g.N()))
	cfg := Config{Delta: 3, Slack: 0.3, Metric: metric.Scalar{}}
	m, err := NewMaintainer(g, base, feats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCentralizedUpdater(g, 0, feats, cfg, 1)
	cur := make([]float64, g.N())
	for i := range cur {
		cur[i] = feats[i][0]
	}
	for step := 0; step < 600; step++ {
		u := topology.NodeID(rng.Intn(g.N()))
		cur[u] += rng.NormFloat64() * 0.4
		f := metric.Feature{cur[u]}
		m.Update(u, f)
		c.Update(u, f)
	}
	if m.Stats().Messages >= c.Stats().Messages {
		t.Errorf("in-network update cost %d should beat centralized %d",
			m.Stats().Messages, c.Stats().Messages)
	}
}

func TestNewMaintainerValidation(t *testing.T) {
	g := topology.NewGrid(1, 2)
	c := cluster.FromRoots([]topology.NodeID{0, 0})
	feats := []metric.Feature{{0}, {0}}
	if _, err := NewMaintainer(g, c, feats[:1], Config{Delta: 1, Metric: metric.Scalar{}}); err == nil {
		t.Error("accepted short feature slice")
	}
	if _, err := NewMaintainer(g, c, feats, Config{Delta: 1, Slack: 0.6, Metric: metric.Scalar{}}); err == nil {
		t.Error("accepted slack > delta/2")
	}
	if _, err := NewMaintainer(g, c, feats, Config{Delta: 1, Slack: -0.1, Metric: metric.Scalar{}}); err == nil {
		t.Error("accepted negative slack")
	}
}

func TestFragmentationAndRecluster(t *testing.T) {
	_, m := twoClusterSetup(t, Config{Delta: 2, Slack: 0.1, Metric: metric.Scalar{}})
	if m.Fragmentation() != 1 {
		t.Errorf("initial fragmentation = %v, want 1", m.Fragmentation())
	}
	// Knock node 2 into a singleton: 3 clusters from 2.
	m.Update(2, metric.Feature{5})
	if got := m.Fragmentation(); got != 1.5 {
		t.Errorf("fragmentation = %v, want 1.5", got)
	}
	if m.NeedsRecluster(2) {
		t.Error("1.5x should not trip a 2x threshold")
	}
	if !m.NeedsRecluster(1.2) {
		t.Error("1.5x should trip a 1.2x threshold")
	}
}

// maintFeatures collects the maintainer's current view of every feature,
// for running the shared clustering validators against it.
func maintFeatures(m *Maintainer, n int) []metric.Feature {
	feats := make([]metric.Feature, n)
	for u := 0; u < n; u++ {
		feats[u] = m.Feature(topology.NodeID(u))
	}
	return feats
}

// mustStayValid asserts the maintained clustering still satisfies the
// validators: a partition of connected clusters, pairwise compact within
// 2δ (maintenance only bounds member-to-root distance by ~δ).
func mustStayValid(t *testing.T, g *topology.Graph, m *Maintainer, delta float64) {
	t.Helper()
	if err := m.Clustering().Validate(g, maintFeatures(m, g.N()), metric.Scalar{}, 2*delta, 1e-9); err != nil {
		t.Fatalf("maintained clustering invalid: %v", err)
	}
}

// TestSimultaneousAdjacentDriftStaysValid drives drift on the two
// boundary nodes of adjacent clusters in the same epoch — the cluster
// seam is where stale root features are most likely to admit a bad
// member — and checks connectivity and 2δ-compactness afterwards.
func TestSimultaneousAdjacentDriftStaysValid(t *testing.T) {
	g, m := twoClusterSetup(t, Config{Delta: 2, Slack: 0.1, Metric: metric.Scalar{}})
	m.Update(2, metric.Feature{9.9}) // detaches, adopted by cluster {3,4,5}
	m.Update(3, metric.Feature{10.4})
	if m.NumClusters() != 2 {
		t.Errorf("NumClusters = %d, want 2", m.NumClusters())
	}
	cl := m.Clustering()
	if cl.ClusterOf(2) != cl.ClusterOf(3) {
		t.Error("node 2 was not adopted across the seam")
	}
	mustStayValid(t, g, m, 2)
}

// TestDetachThenMergeSameEpochStaysValid detaches a node into a fresh
// singleton and, within the same epoch, has its neighbour drift after it
// and merge into that brand-new cluster via probe adoption. The partition
// must stay connected and 2δ-compact through both transitions.
func TestDetachThenMergeSameEpochStaysValid(t *testing.T) {
	g, m := twoClusterSetup(t, Config{Delta: 2, Slack: 0.1, Metric: metric.Scalar{}})
	m.Update(2, metric.Feature{5}) // no cluster admits 5 => singleton {2}
	if c := m.CountersSnapshot(); c.Singletons != 1 {
		t.Fatalf("counters = %+v, want one singleton", c)
	}
	mustStayValid(t, g, m, 2)
	m.Update(1, metric.Feature{5.05}) // follows node 2, adopted by its new cluster
	c := m.CountersSnapshot()
	if c.Detaches != 2 || c.Rejoins != 1 {
		t.Errorf("counters = %+v, want two detaches and one rejoin", c)
	}
	cl := m.Clustering()
	if cl.ClusterOf(1) != cl.ClusterOf(2) {
		t.Error("node 1 did not merge into the fresh singleton's cluster")
	}
	if cl.ClusterOf(1) == cl.ClusterOf(0) {
		t.Error("node 1 still grouped with its old cluster")
	}
	mustStayValid(t, g, m, 2)
}

// TestClusterShrinksToSingletonStaysValid empties {0,1,2} down to a
// singleton: the mid node's detach strands the tail, and every fragment
// must still be a connected, compact cluster.
func TestClusterShrinksToSingletonStaysValid(t *testing.T) {
	g, m := twoClusterSetup(t, Config{Delta: 2, Slack: 0.1, Metric: metric.Scalar{}})
	m.Update(1, metric.Feature{10.1})
	m.Update(2, metric.Feature{10.2})
	if m.NumClusters() != 4 {
		t.Errorf("NumClusters = %d, want 4 ({0} {1} {2} {3,4,5})", m.NumClusters())
	}
	for _, members := range m.Clustering().Members {
		if len(members) > 3 {
			t.Errorf("cluster %v larger than the surviving {3,4,5}", members)
		}
	}
	mustStayValid(t, g, m, 2)
	if f := m.Fragmentation(); f != 2 {
		t.Errorf("Fragmentation = %v, want 2 (4 clusters from 2)", f)
	}
}

// TestClusteringCachedUntilDetach checks that Clustering returns one
// shared value while updates are screened or absorbed, and a fresh value
// equal to rebuilding it from the roots once a detach moves membership.
func TestClusteringCachedUntilDetach(t *testing.T) {
	_, m := twoClusterSetup(t, Config{Delta: 2, Slack: 0.1, Metric: metric.Scalar{}})
	first := m.Clustering()
	m.Update(1, metric.Feature{0.15}) // A1
	m.Update(2, metric.Feature{0.9})  // A3
	m.Update(2, metric.Feature{1.95}) // root fetch, no detach
	if m.CountersSnapshot().Detaches != 0 {
		t.Fatal("fixture detached early")
	}
	if m.Clustering() != first {
		t.Fatal("Clustering rebuilt without a membership change")
	}
	m.Update(2, metric.Feature{9.8}) // detach, rejoin next to 3
	got := m.Clustering()
	if got == first {
		t.Fatal("Clustering kept a stale value across a detach")
	}
	want := cluster.FromRoots([]topology.NodeID{0, 0, 3, 3, 3, 3})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Clustering after detach = %+v, want %+v", got, want)
	}
	if m.Clustering() != got {
		t.Error("Clustering not cached after the detach")
	}
}
