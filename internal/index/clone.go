package index

// Clone returns a copy whose Features and Radius the caller may Refresh
// without disturbing the original. Everything else — the cluster trees,
// assignments, backbone, aggregation order and build stats — is
// immutable after construction and shared, and so are the Feature values
// themselves, because Refresh replaces a node's feature rather than
// writing into it. The streaming engine publishes an index to concurrent
// query readers at every epoch boundary and clones it before the next
// epoch's Refresh, so readers keep an exact, frozen view (copy-on-write
// at epoch granularity).
func (idx *Index) Clone() *Index {
	out := *idx
	out.Features = append(out.Features[:0:0], idx.Features...)
	out.Radius = append(out.Radius[:0:0], idx.Radius...)
	return &out
}
