package profiling

import "time"

// This file adds the sharded profiling layout of the multi-reactor
// runtime. Each shard owns a private *Profile — every hot-path counter
// write lands on memory no other shard touches — and the Group
// aggregates lazily: only a /metrics scrape or a Snapshot call pays the
// cost of summing across shards. Components that are global rather than
// per-shard (the file-I/O pool, the acceptor gate, the overload
// controller) write to a designated extra Profile that participates in
// aggregation like a shard.

// Source is the read side shared by *Profile and *Group: what the
// metrics endpoint and shutdown reports need, independent of whether the
// counters are flat or sharded.
type Source interface {
	Enabled() bool
	Snapshot() Snapshot
	StageSnapshot(Stage) HistogramSnapshot
	FlushSnapshot() HistogramSnapshot
}

// Group is a set of per-shard Profiles plus one global Profile for
// writers not bound to a shard. All methods are safe on a nil receiver
// (the O11-off case), mirroring the Profile nil idiom.
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

// Enabled reports whether the receiver actually records (false for nil).
func (g *Group) Enabled() bool { return g != nil }

// NumShards returns the shard count (0 for nil).
func (g *Group) NumShards() int {
	if g == nil {
		return 0
	}
	return len(g.shards)
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

// addInto accumulates p's counters into agg and returns p's raw service
// nanoseconds so the caller can recompute the aggregate mean without the
// per-shard division loss.
func (p *Profile) addInto(agg *Snapshot) uint64 {
	if p == nil {
		return 0
	}
	s := p.Snapshot()
	agg.ConnectionsAccepted += s.ConnectionsAccepted
	agg.ConnectionsClosed += s.ConnectionsClosed
	agg.ConnectionsRefused += s.ConnectionsRefused
	agg.RequestsServed += s.RequestsServed
	agg.BytesRead += s.BytesRead
	agg.BytesSent += s.BytesSent
	agg.EventsDispatched += s.EventsDispatched
	agg.EventsProcessed += s.EventsProcessed
	agg.CacheHits += s.CacheHits
	agg.CacheMisses += s.CacheMisses
	agg.IdleShutdowns += s.IdleShutdowns
	agg.BytesStreamed += s.BytesStreamed
	agg.SendfileChunks += s.SendfileChunks
	agg.FallbackChunks += s.FallbackChunks
	agg.Responses206 += s.Responses206
	agg.Responses416 += s.Responses416
	agg.OutboundShed += s.OutboundShed
	agg.DirectDispatched += s.DirectDispatched
	agg.ReplyWrites += s.ReplyWrites
	return p.serviceNanos.Load()
}

// Snapshot returns the lazy aggregate across every shard plus the global
// profile; the zero Snapshot for nil.
func (g *Group) Snapshot() Snapshot {
	var agg Snapshot
	if g == nil {
		return agg
	}
	var nanos uint64
	g.all(func(p *Profile) { nanos += p.addInto(&agg) })
	if agg.RequestsServed > 0 {
		agg.MeanServiceTime = time.Duration(nanos / agg.RequestsServed)
	}
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
		var s Snapshot
		nanos := p.addInto(&s)
		if s.RequestsServed > 0 {
			s.MeanServiceTime = time.Duration(nanos / s.RequestsServed)
		}
		out[i] = s
	}
	return out
}

// StageSnapshot merges one stage's histogram across shards and the
// global profile; the zero snapshot for nil.
func (g *Group) StageSnapshot(st Stage) HistogramSnapshot {
	var merged HistogramSnapshot
	if g == nil {
		return merged
	}
	g.all(func(p *Profile) {
		hs := p.StageSnapshot(st)
		merged.Count += hs.Count
		merged.Sum += hs.Sum
		for i := range hs.Buckets {
			merged.Buckets[i] += hs.Buckets[i]
		}
	})
	return merged
}

// FlushSnapshot merges the parked-write flush-latency histogram across
// shards and the global profile; the zero snapshot for nil.
func (g *Group) FlushSnapshot() HistogramSnapshot {
	var merged HistogramSnapshot
	if g == nil {
		return merged
	}
	g.all(func(p *Profile) {
		hs := p.FlushSnapshot()
		merged.Count += hs.Count
		merged.Sum += hs.Sum
		for i := range hs.Buckets {
			merged.Buckets[i] += hs.Buckets[i]
		}
	})
	return merged
}
