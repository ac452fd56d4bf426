// Package profiling implements the performance-profiling support of
// template option O11. When profiling is selected, the generated framework
// gathers "important statistical information of the server application ...
// the number of connections accepted, the number of bytes read, the number
// of bytes sent, the file cache hit rate, etc.".
//
// The Profile type uses the nil-receiver idiom to mirror generation-time
// weaving at library level: a nil *Profile is a valid no-op sink, so code
// paths instrumented with profiling cost a single predictable branch when
// the option is off (the generated-code equivalent omits the calls
// entirely; internal/gen does exactly that for generated frameworks).
package profiling

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Profile accumulates the server-wide counters of option O11. All methods
// are safe for concurrent use and safe on a nil receiver.
type Profile struct {
	connectionsAccepted atomic.Uint64
	connectionsClosed   atomic.Uint64
	connectionsRefused  atomic.Uint64
	requestsServed      atomic.Uint64
	bytesRead           atomic.Uint64
	bytesSent           atomic.Uint64
	eventsDispatched    atomic.Uint64
	eventsProcessed     atomic.Uint64
	cacheHits           atomic.Uint64
	cacheMisses         atomic.Uint64
	idleShutdowns       atomic.Uint64
	// Large-file streaming path counters: bytes that went out via the
	// streaming send (a subset of bytesSent), split by transfer mechanism,
	// plus the Range outcome counts.
	bytesStreamed  atomic.Uint64
	sendfileChunks atomic.Uint64
	fallbackChunks atomic.Uint64
	responses206   atomic.Uint64
	responses416   atomic.Uint64
	// serviceNanos accumulates total request service time for mean
	// response time reporting.
	serviceNanos atomic.Uint64
	// stages holds one latency histogram per instrumented pipeline stage
	// (see histogram.go): the five Fig. 1 steps plus queue wait and AIO
	// completion latency.
	stages [NumStages]Histogram
	// Kernel poller quantities (EventDriven runtimes, see poll.go):
	// ready-batch sizes per epoll_wait wakeup and time blocked waiting.
	pollBatch SizeHistogram
	pollWait  Histogram
	// EPOLLOUT write path quantities: connections shed because their
	// parked outbound queue hit the memory cap, and the park-to-flushed
	// latency of each parked reply residual.
	outboundShed atomic.Uint64
	flushLatency Histogram
	// directDispatched counts requests the FastPath hook served
	// run-to-completion, a subset of requestsServed: the event-queue hop
	// was elided for these.
	directDispatched atomic.Uint64
	// replyWrites counts vectored writes that carried reply memory bytes:
	// requestsServed / replyWrites is how many replies share one write.
	replyWrites atomic.Uint64
	// stageSeen drives the 1-in-StageSampleEvery lattice of StageStart.
	stageSeen atomic.Uint64
}

// New returns an empty profile.
func New() *Profile { return &Profile{} }

// Enabled reports whether the receiver actually records (false for nil).
func (p *Profile) Enabled() bool { return p != nil }

// ConnectionAccepted counts one accepted connection.
func (p *Profile) ConnectionAccepted() {
	if p != nil {
		p.connectionsAccepted.Add(1)
	}
}

// ConnectionClosed counts one closed connection.
func (p *Profile) ConnectionClosed() {
	if p != nil {
		p.connectionsClosed.Add(1)
	}
}

// ConnectionRefused counts one connection refused by overload control.
func (p *Profile) ConnectionRefused() {
	if p != nil {
		p.connectionsRefused.Add(1)
	}
}

// RequestServed counts one completed request and its service time.
func (p *Profile) RequestServed(d time.Duration) {
	if p != nil {
		p.requestsServed.Add(1)
		p.serviceNanos.Add(uint64(d.Nanoseconds()))
	}
}

// BytesRead adds to the byte-read counter.
func (p *Profile) BytesRead(n int) {
	if p != nil && n > 0 {
		p.bytesRead.Add(uint64(n))
	}
}

// BytesSent adds to the byte-sent counter.
func (p *Profile) BytesSent(n int) {
	if p != nil && n > 0 {
		p.bytesSent.Add(uint64(n))
	}
}

// EventDispatched counts one event handed to an Event Processor.
func (p *Profile) EventDispatched() {
	if p != nil {
		p.eventsDispatched.Add(1)
	}
}

// EventProcessed counts one event completed by a worker.
func (p *Profile) EventProcessed() {
	if p != nil {
		p.eventsProcessed.Add(1)
	}
}

// CacheHit counts one file cache hit.
func (p *Profile) CacheHit() {
	if p != nil {
		p.cacheHits.Add(1)
	}
}

// CacheMiss counts one file cache miss.
func (p *Profile) CacheMiss() {
	if p != nil {
		p.cacheMisses.Add(1)
	}
}

// IdleShutdown counts one connection terminated by the idle reaper (O7).
func (p *Profile) IdleShutdown() {
	if p != nil {
		p.idleShutdowns.Add(1)
	}
}

// BytesStreamed adds to the large-file streamed byte counter (these bytes
// also count toward BytesSent).
func (p *Profile) BytesStreamed(n int) {
	if p != nil && n > 0 {
		p.bytesStreamed.Add(uint64(n))
	}
}

// SendfileChunk counts one streamed chunk transferred by sendfile(2).
func (p *Profile) SendfileChunk() {
	if p != nil {
		p.sendfileChunks.Add(1)
	}
}

// StreamFallbackChunk counts one streamed chunk transferred through the
// pooled-buffer copy fallback.
func (p *Profile) StreamFallbackChunk() {
	if p != nil {
		p.fallbackChunks.Add(1)
	}
}

// RangeServed counts one 206 Partial Content response.
func (p *Profile) RangeServed() {
	if p != nil {
		p.responses206.Add(1)
	}
}

// RangeUnsatisfiable counts one 416 Range Not Satisfiable response.
func (p *Profile) RangeUnsatisfiable() {
	if p != nil {
		p.responses416.Add(1)
	}
}

// DirectDispatched counts one request served run-to-completion by the
// goroutine that read it (the event-queue hop elided).
func (p *Profile) DirectDispatched() {
	if p != nil {
		p.directDispatched.Add(1)
	}
}

// ReplyWrite counts one vectored write that carried reply memory bytes
// (heads and in-memory bodies; streamed file chunks are not counted).
func (p *Profile) ReplyWrite() {
	if p != nil {
		p.replyWrites.Add(1)
	}
}

// OutboundShed counts one connection torn down because its parked
// outbound queue exceeded the per-connection memory cap.
func (p *Profile) OutboundShed() {
	if p != nil {
		p.outboundShed.Add(1)
	}
}

// ObserveFlush records one parked reply residual's park-to-flushed
// latency (how long the EPOLLOUT path took to drain it end to end).
func (p *Profile) ObserveFlush(d time.Duration) {
	if p != nil {
		p.flushLatency.Observe(d)
	}
}

// FlushSnapshot returns the parked-write flush-latency distribution; the
// zero snapshot for nil.
func (p *Profile) FlushSnapshot() HistogramSnapshot {
	if p == nil {
		return HistogramSnapshot{}
	}
	return p.flushLatency.Snapshot()
}

// Snapshot is a point-in-time copy of all counters.
type Snapshot struct {
	ConnectionsAccepted uint64
	ConnectionsClosed   uint64
	ConnectionsRefused  uint64
	RequestsServed      uint64
	BytesRead           uint64
	BytesSent           uint64
	EventsDispatched    uint64
	EventsProcessed     uint64
	CacheHits           uint64
	CacheMisses         uint64
	IdleShutdowns       uint64
	BytesStreamed       uint64
	SendfileChunks      uint64
	FallbackChunks      uint64
	Responses206        uint64
	Responses416        uint64
	OutboundShed        uint64
	DirectDispatched    uint64
	ReplyWrites         uint64
	MeanServiceTime     time.Duration
}

// CacheHitRate returns hits/(hits+misses), or 0 with no cache traffic.
func (s Snapshot) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Snapshot returns a copy of the counters; the zero Snapshot for nil.
func (p *Profile) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	s := Snapshot{
		ConnectionsAccepted: p.connectionsAccepted.Load(),
		ConnectionsClosed:   p.connectionsClosed.Load(),
		ConnectionsRefused:  p.connectionsRefused.Load(),
		RequestsServed:      p.requestsServed.Load(),
		BytesRead:           p.bytesRead.Load(),
		BytesSent:           p.bytesSent.Load(),
		EventsDispatched:    p.eventsDispatched.Load(),
		EventsProcessed:     p.eventsProcessed.Load(),
		CacheHits:           p.cacheHits.Load(),
		CacheMisses:         p.cacheMisses.Load(),
		IdleShutdowns:       p.idleShutdowns.Load(),
		BytesStreamed:       p.bytesStreamed.Load(),
		SendfileChunks:      p.sendfileChunks.Load(),
		FallbackChunks:      p.fallbackChunks.Load(),
		Responses206:        p.responses206.Load(),
		Responses416:        p.responses416.Load(),
		OutboundShed:        p.outboundShed.Load(),
		DirectDispatched:    p.directDispatched.Load(),
		ReplyWrites:         p.replyWrites.Load(),
	}
	if s.RequestsServed > 0 {
		s.MeanServiceTime = time.Duration(p.serviceNanos.Load() / s.RequestsServed)
	}
	return s
}

// String formats the snapshot as the one-line report the profiling option
// prints at shutdown.
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"accepted=%d closed=%d refused=%d requests=%d read=%dB sent=%dB streamed=%dB sendfile=%d fallback=%d 206=%d 416=%d dispatched=%d processed=%d cache=%.3f idle_shutdowns=%d outbound_shed=%d mean_service=%v",
		s.ConnectionsAccepted, s.ConnectionsClosed, s.ConnectionsRefused,
		s.RequestsServed, s.BytesRead, s.BytesSent,
		s.BytesStreamed, s.SendfileChunks, s.FallbackChunks, s.Responses206, s.Responses416,
		s.EventsDispatched, s.EventsProcessed, s.CacheHitRate(), s.IdleShutdowns,
		s.OutboundShed, s.MeanServiceTime)
}
