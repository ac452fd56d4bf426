package profiling

// This file adds the sharded profiling layout of the multi-reactor
// runtime. Each shard owns a private *Profile — every hot-path counter
// write lands on memory no other shard touches — and the Group
// aggregates lazily: only a /metrics scrape or a Snapshot call pays the
// cost of summing across shards. Components that are global rather than
// per-shard (the file-I/O pool, the acceptor gate, the overload
// controller) write to a designated extra Profile that participates in
// aggregation like a shard.

// Group is a set of per-shard Profiles plus one global Profile for
// writers not bound to a shard, and the one type the /metrics endpoint
// and the shutdown reports read; an unsharded writer records through
// NewGroup(1).Global(). All methods are safe on a nil receiver (the
// O11-off case), mirroring the Profile nil idiom.
type Group struct {
	shards []*Profile
	global *Profile
}

// NewGroup returns a Group with n per-shard profiles and the global one.
func NewGroup(n int) *Group {
	if n < 1 {
		n = 1
	}
	g := &Group{shards: make([]*Profile, n), global: New()}
	for i := range g.shards {
		g.shards[i] = New()
	}
	return g
}

// Shard returns shard i's profile; nil receiver or out-of-range index
// yields nil (a valid no-op Profile).
func (g *Group) Shard(i int) *Profile {
	if g == nil || i < 0 || i >= len(g.shards) {
		return nil
	}
	return g.shards[i]
}

// Global returns the profile for writers not bound to a shard (file-I/O
// pool, acceptor, overload controller); nil for a nil Group.
func (g *Group) Global() *Profile {
	if g == nil {
		return nil
	}
	return g.global
}

// all iterates shards then the global profile.
func (g *Group) all(f func(*Profile)) {
	if g == nil {
		return
	}
	for _, p := range g.shards {
		f(p)
	}
	f(g.global)
}

// Snapshot returns the lazy aggregate across every shard plus the global
// profile; the zero Snapshot for nil.
func (g *Group) Snapshot() Snapshot {
	var agg Snapshot
	var nanos uint64
	g.all(func(p *Profile) { nanos += agg.add(p) })
	agg.setMean(nanos)
	return agg
}

// ShardSnapshots returns one Snapshot per shard (the global profile is
// excluded — it holds the unsharded components' counters and appears
// only in the aggregate); nil for a nil Group.
func (g *Group) ShardSnapshots() []Snapshot {
	if g == nil {
		return nil
	}
	out := make([]Snapshot, len(g.shards))
	for i, p := range g.shards {
		out[i] = p.Snapshot()
	}
	return out
}

// StageSnapshot merges one stage's histogram across shards and the
// global profile; the zero snapshot for nil.
func (g *Group) StageSnapshot(st Stage) HistogramSnapshot {
	return g.merge(func(p *Profile) *Histogram { return p.StageHistogram(st) })
}

// FlushSnapshot merges the parked-write flush-latency histogram across
// shards and the global profile; the zero snapshot for nil.
func (g *Group) FlushSnapshot() HistogramSnapshot {
	return g.merge(func(p *Profile) *Histogram { return &p.flushLatency })
}

// merge sums the histogram h selects from every profile.
func (g *Group) merge(h func(*Profile) *Histogram) HistogramSnapshot {
	var merged HistogramSnapshot
	g.all(func(p *Profile) {
		hs := h(p).Snapshot()
		merged.Count += hs.Count
		merged.Sum += hs.Sum
		for i := range hs.Buckets {
			merged.Buckets[i] += hs.Buckets[i]
		}
	})
	return merged
}
