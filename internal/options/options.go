// Package options models the N-Server design pattern template options.
//
// The N-Server template (Guo et al., IPPS 2005, Table 1) exposes twelve
// options, O1 through O12. Each option either selects between structural
// variants of the generated framework (for example, whether a Processor
// Controller class exists at all) or tunes code that is woven into many
// generated classes (for example, profiling counters). The Options struct
// is the Go equivalent of the CO2P3S template dialog: it is validated
// against the legal values of Table 1 and then handed to internal/gen to
// produce a specialized framework, or to internal/nserver to configure the
// library runtime directly.
package options

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// OptionID identifies one of the twelve template options of Table 1.
type OptionID int

// Template option identifiers, in the order of Table 1.
const (
	O1DispatcherThreads  OptionID = iota + 1 // # of dispatcher threads: 1 or 2N
	O2SeparateThreadPool                     // separate thread pool for event handling
	O3Codec                                  // encoding/decoding required
	O4CompletionEvents                       // asynchronous or synchronous completion events
	O5ThreadAllocation                       // dynamic or static event thread allocation
	O6FileCache                              // file cache and replacement policy
	O7ShutdownLongIdle                       // shut down long-idle connections
	O8EventScheduling                        // priority event scheduling
	O9OverloadControl                        // automatic overload control
	O10Mode                                  // production or debug mode
	O11Profiling                             // performance profiling
	O12Logging                               // event logging
)

// NumOptions is the number of template options (O1..O12).
const NumOptions = 12

// String returns the short identifier used in the paper's tables ("O1".."O12").
func (id OptionID) String() string {
	if id < O1DispatcherThreads || id > O12Logging {
		return fmt.Sprintf("O?(%d)", int(id))
	}
	return fmt.Sprintf("O%d", int(id))
}

// Name returns the descriptive option name from Table 1.
func (id OptionID) Name() string {
	switch id {
	case O1DispatcherThreads:
		return "# of dispatcher threads"
	case O2SeparateThreadPool:
		return "Separate thread pool for event handling"
	case O3Codec:
		return "Encoding/Decoding required"
	case O4CompletionEvents:
		return "Completion events"
	case O5ThreadAllocation:
		return "Event thread allocation"
	case O6FileCache:
		return "File cache"
	case O7ShutdownLongIdle:
		return "Shutdown long idle"
	case O8EventScheduling:
		return "Event scheduling"
	case O9OverloadControl:
		return "Overload control"
	case O10Mode:
		return "Mode"
	case O11Profiling:
		return "Performance profiling"
	case O12Logging:
		return "Logging"
	}
	return "unknown option"
}

// LegalValues returns the legal value description from Table 1.
func (id OptionID) LegalValues() string {
	switch id {
	case O1DispatcherThreads:
		return "1 or 2N"
	case O2SeparateThreadPool, O3Codec, O7ShutdownLongIdle,
		O8EventScheduling, O9OverloadControl, O11Profiling, O12Logging:
		return "Yes/No"
	case O4CompletionEvents:
		return "Asynchronous/Synchronous"
	case O5ThreadAllocation:
		return "Dynamic/Static"
	case O6FileCache:
		return "Yes(policy)/No"
	case O10Mode:
		return "Production/Debug"
	}
	return ""
}

// CompletionMode selects how completion events for emulated asynchronous
// operations re-enter the framework (option O4).
type CompletionMode int

const (
	// SynchronousCompletion delivers completion results inline: the worker
	// that performed the blocking operation invokes the continuation
	// directly. COPS-FTP uses this mode.
	SynchronousCompletion CompletionMode = iota
	// AsynchronousCompletion posts a Completion Event carrying an
	// asynchronous completion token back through the reactor so the result
	// is processed like any other ready event. COPS-HTTP uses this mode.
	AsynchronousCompletion
)

func (m CompletionMode) String() string {
	if m == AsynchronousCompletion {
		return "Asynchronous"
	}
	return "Synchronous"
}

// Allocation selects how worker threads are bound to the Event Processor's
// queue (option O5).
type Allocation int

const (
	// StaticAllocation creates a fixed pool of workers at startup.
	StaticAllocation Allocation = iota
	// DynamicAllocation lets a Processor Controller grow and shrink the
	// worker pool between configured bounds based on queue pressure.
	DynamicAllocation
)

func (a Allocation) String() string {
	if a == DynamicAllocation {
		return "Dynamic"
	}
	return "Static"
}

// CachePolicy names a file cache replacement policy (option O6).
type CachePolicy int

const (
	// NoCache disables the generated file cache entirely.
	NoCache CachePolicy = iota
	// LRU evicts the least recently used entry.
	LRU
	// LFU evicts the least frequently used entry.
	LFU
	// LRUMin prefers to evict large documents first (Abrams et al. 1995):
	// eviction scans LRU order restricted to entries of at least half the
	// incoming size, halving the threshold until space is found.
	LRUMin
	// LRUThreshold is LRU that refuses to cache documents larger than a
	// size threshold.
	LRUThreshold
	// HyperG evicts by least frequency, breaking ties by recency and then
	// by size (Williams et al. 1996).
	HyperG
	// CustomPolicy delegates victim selection to a user hook method.
	CustomPolicy
)

var cachePolicyNames = map[CachePolicy]string{
	NoCache:      "None",
	LRU:          "LRU",
	LFU:          "LFU",
	LRUMin:       "LRU-MIN",
	LRUThreshold: "LRU-Threshold",
	HyperG:       "Hyper-G",
	CustomPolicy: "Custom",
}

func (p CachePolicy) String() string {
	if s, ok := cachePolicyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("CachePolicy(%d)", int(p))
}

// ParseCachePolicy converts a policy name (as printed by String, case
// insensitive) back to a CachePolicy.
func ParseCachePolicy(s string) (CachePolicy, error) {
	for p, name := range cachePolicyNames {
		if strings.EqualFold(s, name) {
			return p, nil
		}
	}
	return NoCache, fmt.Errorf("options: unknown cache policy %q", s)
}

// Mode selects the generation mode (option O10).
type Mode int

const (
	// Production generates the framework without the internal event trace.
	Production Mode = iota
	// Debug weaves an internal event trace into every generated component;
	// all internal events are appended to a trace sink for post-mortem use.
	Debug
)

func (m Mode) String() string {
	if m == Debug {
		return "Debug"
	}
	return "Production"
}

// Options is one complete assignment of values to the twelve template
// options, plus the numeric parameters those options imply (pool sizes,
// watermarks, timeouts). The zero value is not valid; start from a preset
// or fill in every field and call Validate.
type Options struct {
	// O1: number of dispatcher threads per shard. Legal values are 1 or
	// an even number 2N (one reader/one writer pair per processor, in the
	// paper's terms). With O2 off the dispatcher threads run every event
	// handler, so O1 sets how many run at once. With O2 on, every event
	// the server emits (accept, read, close) goes straight to the Event
	// Processor and none reaches the event source, so the dispatcher
	// threads idle: O1 then changes nothing a connection sees, and
	// connection scaling belongs to Shards.
	DispatcherThreads int

	// O2: if true, ready events are handed to an Event Processor (queue +
	// worker pool) as they are emitted; if false, the dispatcher thread
	// processes events inline, which is the classic single-threaded
	// Reactor.
	SeparateThreadPool bool

	// O2 parameter: number of workers in the reactive Event Processor
	// (initial size when allocation is dynamic).
	EventThreads int

	// O3: whether the generated pipeline includes the Decode Request and
	// Encode Reply stages (Fig. 1) or elides them (Fig. 2).
	Codec bool

	// O4: completion event delivery mode for emulated async operations.
	Completion CompletionMode

	// O5: worker allocation strategy for Event Processors.
	Allocation Allocation

	// O5 parameters: bounds for the Processor Controller when allocation
	// is dynamic. Ignored for static allocation.
	MinEventThreads int
	MaxEventThreads int

	// O6: file cache replacement policy; NoCache disables the cache.
	Cache CachePolicy

	// O6 parameters.
	CacheCapacity  int64 // bytes; must be > 0 when Cache != NoCache
	CacheThreshold int64 // max cacheable document size for LRU-Threshold
	FileIOThreads  int   // workers in the file I/O Event Processor
	// O7: shut down long-idle connections.
	ShutdownLongIdle bool
	IdleTimeout      time.Duration // required when ShutdownLongIdle

	// Connection-hardening parameters, woven into the Read Request and
	// Send Reply handlers like the O7 activity timestamps (the crosscut
	// rows of Table 2 that already vary with connection lifetime
	// management). All three default to 0 = unlimited, which reproduces
	// the paper's configurations exactly.
	//
	// ReadTimeout bounds each blocking transport read AND the total time
	// a partially assembled request may sit in the decode buffer (the
	// slow-client reaper's budget), so a slowloris peer trickling one
	// byte per deadline cannot hold a Communicator forever.
	ReadTimeout time.Duration
	// WriteTimeout bounds each reply write; an unresponsive peer whose
	// receive window stays closed fails the connection instead of
	// pinning a worker in Send.
	WriteTimeout time.Duration
	// MaxRequestBytes caps the per-connection decode buffer; a peer that
	// streams an unbounded "request" is torn down once the buffer would
	// exceed the cap.
	MaxRequestBytes int

	// LargeFileThreshold, when > 0, enables the large-file fast path:
	// documents of at least this many bytes bypass the in-memory file
	// cache (the cache refuses to admit them) and are streamed from an
	// open descriptor — via sendfile(2) on Linux TCP transports, a
	// pooled-buffer copy loop elsewhere. 0 disables the path, which
	// reproduces the paper's configurations exactly.
	LargeFileThreshold int64

	// O8: priority event scheduling with per-level quotas.
	EventScheduling bool
	Quotas          []int // per-level quota, highest priority first; one level each (>= 2 when enabled)

	// O9: automatic overload control via event queue watermarks. The
	// accept gate is an AIMD admission limiter over sampled queue waits
	// with the watermark pair as its hard backstop, so the paper's
	// watermark guarantees always hold.
	OverloadControl bool
	HighWatermark   int
	LowWatermark    int
	// MaxConnections, when > 0, additionally bounds simultaneous
	// connections (the paper's "trivial" first overload mechanism).
	MaxConnections int

	// Shards is the multi-reactor shard count: the runtime (and the
	// generated framework) instantiates this many independent
	// Reactor + Event Processor + scavenger groups, each owning a
	// disjoint subset of the connections, so accept, dispatch and event
	// processing never share a lock across shards. The file-I/O pool
	// stays global. 0 means "one shard per processor"
	// (runtime.NumCPU(), resolved at assembly time); 1 reproduces the
	// paper's single-reactor runtime exactly. Negative is invalid.
	Shards int

	// O10: generation mode.
	Mode Mode

	// O11: weave profiling counters (connections accepted, bytes read,
	// bytes sent, cache hit rate, ...) into the framework.
	Profiling bool

	// O12: weave application-level logging into the framework.
	Logging bool
}

// Validation errors returned by Options.Validate (wrapped with context).
var (
	ErrDispatcherThreads = errors.New("O1: dispatcher threads must be 1 or a positive even number 2N")
	ErrEventThreads      = errors.New("O2: event threads must be positive when a separate thread pool is selected")
	ErrAllocationBounds  = errors.New("O5: dynamic allocation requires 0 < min <= max event threads")
	ErrCacheCapacity     = errors.New("O6: cache capacity must be positive when the file cache is enabled")
	ErrCacheThreshold    = errors.New("O6: LRU-Threshold requires a positive cache threshold")
	ErrIdleTimeout       = errors.New("O7: shutdown of long-idle connections requires a positive idle timeout")
	ErrPriorityLevels    = errors.New("O8: event scheduling requires at least 2 priority levels")
	ErrQuotas            = errors.New("O8: every priority level's quota must be positive")
	ErrWatermarks        = errors.New("O9: overload control requires 0 < low watermark < high watermark")
	ErrFileIOThreads     = errors.New("O6: file cache requires a positive number of file I/O threads")
	ErrHardening         = errors.New("hardening: read/write timeouts and max request bytes must be non-negative")
	ErrLargeFile         = errors.New("large files: threshold must be non-negative")
	ErrShards            = errors.New("sharding: shard count must be non-negative (0 = one per processor)")
)

// Validate checks the option assignment against the legal values of
// Table 1 and the cross-option constraints the template enforces. It
// returns the first violation found.
func (o *Options) Validate() error {
	if o.DispatcherThreads != 1 && (o.DispatcherThreads < 2 || o.DispatcherThreads%2 != 0) {
		return fmt.Errorf("%w (got %d)", ErrDispatcherThreads, o.DispatcherThreads)
	}
	if o.SeparateThreadPool && o.EventThreads <= 0 {
		return fmt.Errorf("%w (got %d)", ErrEventThreads, o.EventThreads)
	}
	if o.Allocation == DynamicAllocation {
		if o.MinEventThreads <= 0 || o.MaxEventThreads < o.MinEventThreads {
			return fmt.Errorf("%w (got min=%d max=%d)", ErrAllocationBounds, o.MinEventThreads, o.MaxEventThreads)
		}
	}
	if o.Cache != NoCache {
		if _, ok := cachePolicyNames[o.Cache]; !ok {
			return fmt.Errorf("O6: unknown cache policy %d", int(o.Cache))
		}
		if o.CacheCapacity <= 0 {
			return fmt.Errorf("%w (got %d)", ErrCacheCapacity, o.CacheCapacity)
		}
		if o.Cache == LRUThreshold && o.CacheThreshold <= 0 {
			return fmt.Errorf("%w (got %d)", ErrCacheThreshold, o.CacheThreshold)
		}
		if o.FileIOThreads <= 0 {
			return fmt.Errorf("%w (got %d)", ErrFileIOThreads, o.FileIOThreads)
		}
	}
	if o.ShutdownLongIdle && o.IdleTimeout <= 0 {
		return fmt.Errorf("%w (got %v)", ErrIdleTimeout, o.IdleTimeout)
	}
	if o.ReadTimeout < 0 || o.WriteTimeout < 0 || o.MaxRequestBytes < 0 {
		return fmt.Errorf("%w (got read=%v write=%v max=%d)",
			ErrHardening, o.ReadTimeout, o.WriteTimeout, o.MaxRequestBytes)
	}
	if o.LargeFileThreshold < 0 {
		return fmt.Errorf("%w (got %d)", ErrLargeFile, o.LargeFileThreshold)
	}
	if o.Shards < 0 {
		return fmt.Errorf("%w (got %d)", ErrShards, o.Shards)
	}
	if o.EventScheduling {
		if len(o.Quotas) < 2 {
			return fmt.Errorf("%w (got %d quotas)", ErrPriorityLevels, len(o.Quotas))
		}
		for i, q := range o.Quotas {
			if q <= 0 {
				return fmt.Errorf("%w (quota[%d]=%d)", ErrQuotas, i, q)
			}
		}
	}
	if o.OverloadControl {
		if o.LowWatermark <= 0 || o.HighWatermark <= o.LowWatermark {
			return fmt.Errorf("%w (got low=%d high=%d)", ErrWatermarks, o.LowWatermark, o.HighWatermark)
		}
	}
	return nil
}

// Value returns the display value of an option as printed in Table 1's
// application columns (for example "Yes: LRU" for O6 in COPS-HTTP).
func (o *Options) Value(id OptionID) string {
	switch id {
	case O1DispatcherThreads:
		return fmt.Sprintf("%d", o.DispatcherThreads)
	case O2SeparateThreadPool:
		return yesNo(o.SeparateThreadPool)
	case O3Codec:
		return yesNo(o.Codec)
	case O4CompletionEvents:
		return o.Completion.String()
	case O5ThreadAllocation:
		return o.Allocation.String()
	case O6FileCache:
		if o.Cache == NoCache {
			return "No"
		}
		return "Yes: " + o.Cache.String()
	case O7ShutdownLongIdle:
		return yesNo(o.ShutdownLongIdle)
	case O8EventScheduling:
		return yesNo(o.EventScheduling)
	case O9OverloadControl:
		return yesNo(o.OverloadControl)
	case O10Mode:
		return o.Mode.String()
	case O11Profiling:
		return yesNo(o.Profiling)
	case O12Logging:
		return yesNo(o.Logging)
	}
	return ""
}

func yesNo(b bool) string {
	if b {
		return "Yes"
	}
	return "No"
}

// COPSFTP returns the option settings of the COPS-FTP column of Table 1:
// one dispatcher thread, a separate event-handling pool with dynamic
// allocation, codec stages, synchronous completion events, no cache, idle
// shutdown enabled, no scheduling or overload control, production mode.
func COPSFTP() Options {
	return Options{
		DispatcherThreads:  1,
		SeparateThreadPool: true,
		EventThreads:       4,
		Codec:              true,
		Completion:         SynchronousCompletion,
		Allocation:         DynamicAllocation,
		MinEventThreads:    2,
		MaxEventThreads:    16,
		Cache:              NoCache,
		ShutdownLongIdle:   true,
		IdleTimeout:        5 * time.Minute,
		Mode:               Production,
	}
}

// COPSHTTP returns the option settings of the COPS-HTTP column of Table 1
// for the first (throughput) experiment: one dispatcher thread, a separate
// static pool, codec stages, asynchronous completion events, a 20 MB LRU
// file cache, no idle shutdown, scheduling and overload control off,
// production mode. The second and third experiments toggle O8 and O9
// respectively (see WithScheduling and WithOverloadControl).
func COPSHTTP() Options {
	return Options{
		DispatcherThreads:  1,
		SeparateThreadPool: true,
		EventThreads:       4,
		Codec:              true,
		Completion:         AsynchronousCompletion,
		Allocation:         StaticAllocation,
		Cache:              LRU,
		CacheCapacity:      20 << 20,
		FileIOThreads:      4,
		Mode:               Production,
	}
}

// WithScheduling returns a copy of o with O8 enabled using the given
// per-level quotas (highest priority first). This is the COPS-HTTP
// configuration of the paper's second experiment.
func (o Options) WithScheduling(quotas ...int) Options {
	o.EventScheduling = true
	o.Quotas = append([]int(nil), quotas...)
	return o
}

// WithOverloadControl returns a copy of o with O9 enabled using the given
// queue watermarks. This is the COPS-HTTP configuration of the paper's
// third experiment (high=20, low=5).
func (o Options) WithOverloadControl(high, low int) Options {
	o.OverloadControl = true
	o.HighWatermark = high
	o.LowWatermark = low
	return o
}

// WithHardening returns a copy of o with the connection-hardening
// parameters set: per-read/request-assembly and per-write deadlines plus
// the decode-buffer cap (0 leaves a bound disabled).
func (o Options) WithHardening(read, write time.Duration, maxRequestBytes int) Options {
	o.ReadTimeout = read
	o.WriteTimeout = write
	o.MaxRequestBytes = maxRequestBytes
	return o
}

// WithLargeFiles returns a copy of o with the large-file streaming
// threshold set: documents of at least threshold bytes bypass the cache
// and stream from an open descriptor (0 disables the path).
func (o Options) WithLargeFiles(threshold int64) Options {
	o.LargeFileThreshold = threshold
	return o
}

// WithShards returns a copy of o with the multi-reactor shard count set
// (0 resolves to one shard per processor at assembly time).
func (o Options) WithShards(n int) Options {
	o.Shards = n
	return o
}

// ResolveShards returns the effective shard count: Shards when positive,
// otherwise one per processor (numCPU is injected so generation and
// assembly resolve identically; pass runtime.NumCPU()).
func (o *Options) ResolveShards(numCPU int) int {
	if o.Shards > 0 {
		return o.Shards
	}
	if numCPU < 1 {
		numCPU = 1
	}
	return numCPU
}

// AllOptionIDs lists O1..O12 in table order.
func AllOptionIDs() []OptionID {
	ids := make([]OptionID, NumOptions)
	for i := range ids {
		ids[i] = OptionID(i + 1)
	}
	return ids
}
