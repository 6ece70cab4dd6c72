package obs

import "testing"

// BenchmarkQueryShapedTrace times the exact span tree the engine's
// range-query path builds (root + q-backbone/q-clusters/q-aggregate):
// the per-trace cost here, times the query rate, is the tracing
// overhead a deployment pays. The shape matters — small sequential
// trees exercise the rootAlloc pooling, the monotonic clock reads and
// record()'s phase attribution, which together dominate the cost.
func BenchmarkQueryShapedTrace(b *testing.B) {
	t := newSpanTracer(256, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := t.Start("range-query")
		for _, n := range [3]string{"q-backbone", "q-clusters", "q-aggregate"} {
			c := root.Child(n)
			c.Finish()
		}
		root.Finish()
	}
}

// BenchmarkEpochShapedTrace times the epoch pipeline's span tree
// (root + five sequential phase children plus a label), the other trace
// shape the streaming engine emits on every recluster round.
func BenchmarkEpochShapedTrace(b *testing.B) {
	t := newSpanTracer(256, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := t.Start("epoch")
		for _, n := range [5]string{"validate", "refit", "maintain", "index", "publish"} {
			c := root.Child(n)
			c.Finish()
		}
		root.Label("epoch", "42")
		root.Finish()
	}
}
