package options

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// fileForm is the on-disk JSON representation of an Options value, used by
// cmd/nsgen configuration files. Enumerated options are stored as the
// strings of Table 1 ("Asynchronous", "LRU", "Debug", ...) and durations as
// Go duration strings ("5m"). Every Options field has a key here, and
// decoding rejects keys the form lacks, so a configuration cannot ask for
// a setting that silently never reaches the generator.
type fileForm struct {
	DispatcherThreads  int    `json:"dispatcher_threads"`
	SeparateThreadPool bool   `json:"separate_thread_pool"`
	EventThreads       int    `json:"event_threads,omitempty"`
	Codec              bool   `json:"codec"`
	Completion         string `json:"completion"`
	Allocation         string `json:"allocation"`
	MinEventThreads    int    `json:"min_event_threads,omitempty"`
	MaxEventThreads    int    `json:"max_event_threads,omitempty"`
	Cache              string `json:"cache"`
	CacheCapacity      int64  `json:"cache_capacity,omitempty"`
	CacheThreshold     int64  `json:"cache_threshold,omitempty"`
	FileIOThreads      int    `json:"file_io_threads,omitempty"`
	ShutdownLongIdle   bool   `json:"shutdown_long_idle"`
	IdleTimeout        string `json:"idle_timeout,omitempty"`
	ReadTimeout        string `json:"read_timeout,omitempty"`
	WriteTimeout       string `json:"write_timeout,omitempty"`
	MaxRequestBytes    int    `json:"max_request_bytes,omitempty"`
	LargeFileThreshold int64  `json:"large_file_threshold,omitempty"`
	EventScheduling    bool   `json:"event_scheduling"`
	Quotas             []int  `json:"quotas,omitempty"`
	OverloadControl    bool   `json:"overload_control"`
	HighWatermark      int    `json:"high_watermark,omitempty"`
	LowWatermark       int    `json:"low_watermark,omitempty"`
	MaxConnections     int    `json:"max_connections,omitempty"`
	Shards             int    `json:"shards,omitempty"`
	Mode               string `json:"mode"`
	Profiling          bool   `json:"profiling"`
	Logging            bool   `json:"logging"`
}

// MarshalJSON encodes the options in the nsgen configuration file format.
func (o Options) MarshalJSON() ([]byte, error) {
	f := fileForm{
		DispatcherThreads:  o.DispatcherThreads,
		SeparateThreadPool: o.SeparateThreadPool,
		EventThreads:       o.EventThreads,
		Codec:              o.Codec,
		Completion:         o.Completion.String(),
		Allocation:         o.Allocation.String(),
		MinEventThreads:    o.MinEventThreads,
		MaxEventThreads:    o.MaxEventThreads,
		Cache:              o.Cache.String(),
		CacheCapacity:      o.CacheCapacity,
		CacheThreshold:     o.CacheThreshold,
		FileIOThreads:      o.FileIOThreads,
		ShutdownLongIdle:   o.ShutdownLongIdle,
		IdleTimeout:        durationString(o.IdleTimeout),
		ReadTimeout:        durationString(o.ReadTimeout),
		WriteTimeout:       durationString(o.WriteTimeout),
		MaxRequestBytes:    o.MaxRequestBytes,
		LargeFileThreshold: o.LargeFileThreshold,
		EventScheduling:    o.EventScheduling,
		Quotas:             o.Quotas,
		OverloadControl:    o.OverloadControl,
		HighWatermark:      o.HighWatermark,
		LowWatermark:       o.LowWatermark,
		MaxConnections:     o.MaxConnections,
		Shards:             o.Shards,
		Mode:               o.Mode.String(),
		Profiling:          o.Profiling,
		Logging:            o.Logging,
	}
	return json.Marshal(f)
}

// durationString renders a duration field ("" for zero, which omits it).
func durationString(d time.Duration) string {
	if d == 0 {
		return ""
	}
	return d.String()
}

// UnmarshalJSON decodes the nsgen configuration file format.
func (o *Options) UnmarshalJSON(data []byte) error {
	var f fileForm
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("options: %w", err)
	}
	out := Options{
		DispatcherThreads:  f.DispatcherThreads,
		SeparateThreadPool: f.SeparateThreadPool,
		EventThreads:       f.EventThreads,
		Codec:              f.Codec,
		MinEventThreads:    f.MinEventThreads,
		MaxEventThreads:    f.MaxEventThreads,
		CacheCapacity:      f.CacheCapacity,
		CacheThreshold:     f.CacheThreshold,
		FileIOThreads:      f.FileIOThreads,
		ShutdownLongIdle:   f.ShutdownLongIdle,
		MaxRequestBytes:    f.MaxRequestBytes,
		LargeFileThreshold: f.LargeFileThreshold,
		EventScheduling:    f.EventScheduling,
		Quotas:             f.Quotas,
		OverloadControl:    f.OverloadControl,
		HighWatermark:      f.HighWatermark,
		LowWatermark:       f.LowWatermark,
		MaxConnections:     f.MaxConnections,
		Shards:             f.Shards,
		Profiling:          f.Profiling,
		Logging:            f.Logging,
	}
	switch f.Completion {
	case "", "Synchronous":
		out.Completion = SynchronousCompletion
	case "Asynchronous":
		out.Completion = AsynchronousCompletion
	default:
		return fmt.Errorf("options: unknown completion mode %q", f.Completion)
	}
	switch f.Allocation {
	case "", "Static":
		out.Allocation = StaticAllocation
	case "Dynamic":
		out.Allocation = DynamicAllocation
	default:
		return fmt.Errorf("options: unknown allocation %q", f.Allocation)
	}
	switch f.Cache {
	case "", "None", "No":
		out.Cache = NoCache
	default:
		p, err := ParseCachePolicy(f.Cache)
		if err != nil {
			return err
		}
		out.Cache = p
	}
	switch f.Mode {
	case "", "Production":
		out.Mode = Production
	case "Debug":
		out.Mode = Debug
	default:
		return fmt.Errorf("options: unknown mode %q", f.Mode)
	}
	for _, d := range []struct {
		key string
		src string
		dst *time.Duration
	}{
		{"idle_timeout", f.IdleTimeout, &out.IdleTimeout},
		{"read_timeout", f.ReadTimeout, &out.ReadTimeout},
		{"write_timeout", f.WriteTimeout, &out.WriteTimeout},
	} {
		if d.src == "" {
			continue
		}
		v, err := time.ParseDuration(d.src)
		if err != nil {
			return fmt.Errorf("options: bad %s: %w", d.key, err)
		}
		*d.dst = v
	}
	*o = out
	return nil
}
