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

// Counter names one O11 counter. Each is declared once, by its constant
// here, its row in counters and its Snapshot field.
type Counter int

// The counters, in /metrics rendering order.
const (
	ConnectionsAccepted Counter = iota
	ConnectionsClosed
	ConnectionsRefused // refused by overload control
	RequestsServed     // bumped by RequestServed with the service time
	BytesRead
	BytesSent
	BytesStreamed  // large-file streaming body bytes, a subset of BytesSent
	SendfileChunks // streamed chunks carried by sendfile(2)
	FallbackChunks // streamed chunks carried by the pooled-buffer copy
	Responses206
	Responses416
	EventsDispatched // events handed to an Event Processor
	EventsProcessed  // events completed by a worker
	IdleShutdowns    // reaped at the O7 idle bound or ReadTimeout's assembly bound
	OutboundShed     // torn down because the parked outbound queue hit its cap
	DirectDispatched // served run-to-completion by the reader (queue hop elided)
	ReplyWrites      // vectored writes carrying reply memory bytes
	CacheHits
	CacheMisses
	numCounters
)

// counters holds each counter's Prometheus name, help text and Snapshot
// field. The file-cache rows have no name: /metrics exports the cache's
// own statistics instead, so they appear only in the JSON document.
var counters = [numCounters]struct {
	name, help string
	field      func(*Snapshot) *uint64
}{
	ConnectionsAccepted: {"nserver_connections_accepted_total", "Connections accepted.", func(s *Snapshot) *uint64 { return &s.ConnectionsAccepted }},
	ConnectionsClosed:   {"nserver_connections_closed_total", "Connections closed.", func(s *Snapshot) *uint64 { return &s.ConnectionsClosed }},
	ConnectionsRefused:  {"nserver_connections_refused_total", "Connections refused by overload control.", func(s *Snapshot) *uint64 { return &s.ConnectionsRefused }},
	RequestsServed:      {"nserver_requests_total", "Requests served.", func(s *Snapshot) *uint64 { return &s.RequestsServed }},
	BytesRead:           {"nserver_read_bytes_total", "Bytes read from clients.", func(s *Snapshot) *uint64 { return &s.BytesRead }},
	BytesSent:           {"nserver_sent_bytes_total", "Bytes sent to clients.", func(s *Snapshot) *uint64 { return &s.BytesSent }},
	BytesStreamed:       {"nserver_streamed_bytes_total", "Body bytes streamed by the large-file path.", func(s *Snapshot) *uint64 { return &s.BytesStreamed }},
	SendfileChunks:      {"nserver_sendfile_chunks_total", "Streamed chunks carried by sendfile(2).", func(s *Snapshot) *uint64 { return &s.SendfileChunks }},
	FallbackChunks:      {"nserver_stream_fallback_chunks_total", "Streamed chunks carried by the pooled-copy fallback.", func(s *Snapshot) *uint64 { return &s.FallbackChunks }},
	Responses206:        {"nserver_range_responses_total", "206 Partial Content responses served.", func(s *Snapshot) *uint64 { return &s.Responses206 }},
	Responses416:        {"nserver_range_unsatisfiable_total", "416 Range Not Satisfiable responses served.", func(s *Snapshot) *uint64 { return &s.Responses416 }},
	EventsDispatched:    {"nserver_events_dispatched_total", "Events handed to event processors.", func(s *Snapshot) *uint64 { return &s.EventsDispatched }},
	EventsProcessed:     {"nserver_events_processed_total", "Events completed by workers.", func(s *Snapshot) *uint64 { return &s.EventsProcessed }},
	IdleShutdowns:       {"nserver_idle_shutdowns_total", "Connections reaped idle or slow.", func(s *Snapshot) *uint64 { return &s.IdleShutdowns }},
	OutboundShed:        {"nserver_outbound_shed_total", "Connections torn down because the parked outbound queue hit the memory cap.", func(s *Snapshot) *uint64 { return &s.OutboundShed }},
	DirectDispatched:    {"nserver_direct_dispatch_total", "Requests served run-to-completion by the goroutine that read them (event-queue hop elided).", func(s *Snapshot) *uint64 { return &s.DirectDispatched }},
	ReplyWrites:         {"nserver_reply_writes_total", "Vectored writes that carried reply bytes; requests_total / reply_writes_total is replies per write.", func(s *Snapshot) *uint64 { return &s.ReplyWrites }},
	CacheHits:           {"", "", func(s *Snapshot) *uint64 { return &s.CacheHits }},
	CacheMisses:         {"", "", func(s *Snapshot) *uint64 { return &s.CacheMisses }},
}

// Profile accumulates the server-wide counters of option O11. All methods
// are safe for concurrent use and safe on a nil receiver.
type Profile struct {
	counts [numCounters]atomic.Uint64
	// serviceNanos accumulates total request service time for mean
	// response time reporting.
	serviceNanos atomic.Uint64
	// stages holds one latency histogram per instrumented pipeline stage
	// (see histogram.go): the five Fig. 1 steps plus queue wait and AIO
	// completion latency.
	stages [NumStages]Histogram
	// flushLatency is the park-to-flushed latency of each parked reply
	// residual.
	flushLatency Histogram
	// stageSeen drives the 1-in-StageSampleEvery lattice of StageStart.
	stageSeen atomic.Uint64
}

// New returns an empty profile.
func New() *Profile { return &Profile{} }

// Add adds n to counter c; a nil receiver or n <= 0 is a no-op.
func (p *Profile) Add(c Counter, n int) {
	if p != nil && n > 0 {
		p.counts[c].Add(uint64(n))
	}
}

// RequestServed counts one completed request and its service time.
func (p *Profile) RequestServed(d time.Duration) {
	if p != nil {
		p.counts[RequestsServed].Add(1)
		p.serviceNanos.Add(uint64(d.Nanoseconds()))
	}
}

// ObserveFlush records one parked reply residual's park-to-flushed
// latency (how long the write pump took to drain it end to end).
func (p *Profile) ObserveFlush(d time.Duration) {
	if p != nil {
		p.flushLatency.Observe(d)
	}
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
	var s Snapshot
	s.setMean(s.add(p))
	return s
}

// add sums p's counters into s and returns p's service nanoseconds, so an
// aggregate computes its mean without the per-profile division loss.
func (s *Snapshot) add(p *Profile) uint64 {
	if p == nil {
		return 0
	}
	for c := range counters {
		*counters[c].field(s) += p.counts[c].Load()
	}
	return p.serviceNanos.Load()
}

// EachCounter calls f with the Prometheus name, help text and value of
// every named counter in s, in rendering order.
func (s Snapshot) EachCounter(f func(name, help string, v uint64)) {
	for _, c := range counters {
		if c.name != "" {
			f(c.name, c.help, *c.field(&s))
		}
	}
}

// setMean sets MeanServiceTime from the summed service nanoseconds.
func (s *Snapshot) setMean(nanos uint64) {
	if s.RequestsServed > 0 {
		s.MeanServiceTime = time.Duration(nanos / s.RequestsServed)
	}
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
