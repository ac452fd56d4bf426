// Package gen is the generative half of the reproduction: the CO2P3S
// code-generation engine for the N-Server design pattern template. Given
// a validated option assignment (Table 1), Generate emits a
// self-contained, stdlib-only Go server framework in which every selected
// feature is woven in at generation time and every unselected feature is
// absent — the property Table 2's crosscut matrix documents and the paper
// argues cannot be matched by a static framework. The emitted framework
// compiles on its own; the application writes only the hook methods.
//
// The package also measures code distribution (classes / methods / NCSS)
// for the Tables 3 and 4 reproduction.
package gen

import (
	"bytes"
	"fmt"
	"go/format"
	"os"
	"path/filepath"
	"sort"
	"text/template"

	"repro/internal/options"
)

// Artifact is one generated framework.
type Artifact struct {
	// Package is the generated package name.
	Package string
	// Files maps file name to formatted Go source.
	Files map[string][]byte
	// Options echoes the generating option assignment.
	Options options.Options
}

// templates are parsed once.
var (
	docTmpl       = template.Must(template.New("doc").Parse(docTemplate))
	frameworkTmpl = template.Must(template.New("framework").Parse(frameworkTemplate))
	cacheTmpl     = template.Must(template.New("cache").Parse(cacheTemplate))
	lowatTmpl     = template.Must(template.New("lowat_linux").Parse(lowatLinuxTemplate))
	lowatNoTmpl   = template.Must(template.New("lowat_other").Parse(lowatOtherTemplate))
)

// tmplData is the template context derived from an option assignment.
type tmplData struct {
	Package    string
	OptionRows []string

	DispatcherThreads int
	Pool              bool
	EventThreads      int
	Codec             bool
	Async             bool
	Dynamic           bool
	MinThreads        int
	MaxThreads        int

	Cache          bool
	Policy         string
	PolicyName     string
	CacheCapacity  int64
	CacheThreshold int64
	Threshold      bool
	NeedFreq       bool
	NeedClock      bool
	FileIOThreads  int

	Idle             bool
	IdleTimeoutNanos int64

	Scheduling bool
	Quotas     []int

	// O9 weaves the watermark gate and, layered on it, the AIMD
	// admission limiter fed by a 1-in-N sample of Event Processor queue
	// waits (Table 2 marks the Event Processor as depending on O9).
	Overload       bool
	HighWatermark  int
	LowWatermark   int
	MaxConns       bool
	MaxConnections int

	Debug     bool
	Profiling bool
	Logging   bool

	// Connection-hardening crosscuts: each is woven in only when its
	// option is non-zero, keeping the paper-configured frameworks
	// byte-identical to before hardening existed.
	ReadDeadline      bool
	WriteDeadline     bool
	CapRequest        bool
	ReadTimeoutNanos  int64
	WriteTimeoutNanos int64
	MaxRequestBytes   int

	// Large-file streaming crosscut: woven only when a threshold is
	// selected, adding FileIO.Open and Communicator.SendFile so bodies
	// at or above the threshold stream from a descriptor instead of
	// passing through memory (and the cache).
	LargeFile          bool
	LargeFileThreshold int64

	// Multi-reactor sharding crosscut: woven only when more than one
	// shard is selected. The generated Server then owns Shards reactors
	// (each with its own event processor when O2 selects a pool),
	// spreads accepted connections across them round-robin, and the
	// processors steal bounded batches from each other's queues. With
	// one shard the generated source is byte-identical to before the
	// crosscut existed.
	Sharded bool
	Shards  int

	// Run-to-completion fast path: not an option but a rule, woven
	// whenever there is a decoded request to offer (O3) and a queue to
	// punt a declined one to (O2 pool) — the library runtime's rule. The
	// generated Server then exposes a FastPath hook the application
	// installs; the reader goroutine that wakes a connection offers each
	// decoded request to it inline, skipping the event-queue hop. A declined request — miss, ineligible
	// method, pipelined backlog, overload — is punted to the queued path
	// unchanged.
	DirectDispatch bool
}

// Generate validates opts and emits the specialized framework under the
// given package name (default "nserver").
func Generate(pkg string, opts options.Options) (*Artifact, error) {
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("gen: invalid options: %w", err)
	}
	if pkg == "" {
		pkg = "nserver"
	}
	d := tmplData{
		Package:            pkg,
		DispatcherThreads:  opts.DispatcherThreads,
		Pool:               opts.SeparateThreadPool,
		EventThreads:       opts.EventThreads,
		Codec:              opts.Codec,
		Async:              opts.Completion == options.AsynchronousCompletion,
		Dynamic:            opts.Allocation == options.DynamicAllocation,
		MinThreads:         opts.MinEventThreads,
		MaxThreads:         opts.MaxEventThreads,
		Cache:              opts.Cache != options.NoCache,
		Policy:             opts.Cache.String(),
		PolicyName:         opts.Cache.String(),
		CacheCapacity:      opts.CacheCapacity,
		CacheThreshold:     opts.CacheThreshold,
		Threshold:          opts.Cache == options.LRUThreshold,
		NeedFreq:           opts.Cache == options.LFU || opts.Cache == options.HyperG || opts.Cache == options.CustomPolicy,
		NeedClock:          opts.Cache == options.HyperG,
		FileIOThreads:      opts.FileIOThreads,
		Idle:               opts.ShutdownLongIdle,
		IdleTimeoutNanos:   opts.IdleTimeout.Nanoseconds(),
		Scheduling:         opts.EventScheduling,
		Quotas:             opts.Quotas,
		Overload:           opts.OverloadControl,
		HighWatermark:      opts.HighWatermark,
		LowWatermark:       opts.LowWatermark,
		MaxConns:           opts.MaxConnections > 0,
		MaxConnections:     opts.MaxConnections,
		Debug:              opts.Mode == options.Debug,
		Profiling:          opts.Profiling,
		Logging:            opts.Logging,
		ReadDeadline:       opts.ReadTimeout > 0,
		WriteDeadline:      opts.WriteTimeout > 0,
		CapRequest:         opts.MaxRequestBytes > 0 && opts.Codec,
		ReadTimeoutNanos:   opts.ReadTimeout.Nanoseconds(),
		WriteTimeoutNanos:  opts.WriteTimeout.Nanoseconds(),
		MaxRequestBytes:    opts.MaxRequestBytes,
		LargeFile:          opts.LargeFileThreshold > 0,
		LargeFileThreshold: opts.LargeFileThreshold,
		Sharded:            opts.Shards > 1,
		Shards:             opts.Shards,
		DirectDispatch:     opts.Codec && opts.SeparateThreadPool,
	}
	if d.FileIOThreads <= 0 {
		d.FileIOThreads = 2
	}
	if !d.Pool {
		d.EventThreads = 0
	}
	for _, id := range options.AllOptionIDs() {
		d.OptionRows = append(d.OptionRows,
			fmt.Sprintf("%-3s %-42s = %s", id.String(), id.Name(), opts.Value(id)))
	}

	a := &Artifact{Package: pkg, Options: opts, Files: make(map[string][]byte)}
	emit := func(name string, tmpl *template.Template) error {
		var buf bytes.Buffer
		if err := tmpl.Execute(&buf, d); err != nil {
			return fmt.Errorf("gen: render %s: %w", name, err)
		}
		src, err := format.Source(buf.Bytes())
		if err != nil {
			return fmt.Errorf("gen: generated %s does not parse: %w\n%s", name, err, buf.Bytes())
		}
		a.Files[name] = src
		return nil
	}
	if err := emit("doc.go", docTmpl); err != nil {
		return nil, err
	}
	if err := emit("framework.go", frameworkTmpl); err != nil {
		return nil, err
	}
	if d.Cache {
		if err := emit("cache.go", cacheTmpl); err != nil {
			return nil, err
		}
	}
	if d.Idle || d.WriteDeadline {
		if err := emit("lowat_linux.go", lowatTmpl); err != nil {
			return nil, err
		}
		if err := emit("lowat_other.go", lowatNoTmpl); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// FileNames returns the artifact's file names, sorted.
func (a *Artifact) FileNames() []string {
	names := make([]string, 0, len(a.Files))
	for n := range a.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats measures the artifact's code distribution (the "Generated code"
// rows of Tables 3 and 4).
func (a *Artifact) Stats() CodeStats {
	var total CodeStats
	for _, name := range a.FileNames() {
		total.Add(CountSource(name, a.Files[name]))
	}
	return total
}

// WriteTo materializes the artifact under dir (created if needed),
// together with a go.mod so the framework builds standalone.
func (a *Artifact) WriteTo(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, src := range a.Files {
		if err := os.WriteFile(filepath.Join(dir, name), src, 0o644); err != nil {
			return err
		}
	}
	gomod := fmt.Sprintf("module %s\n\ngo 1.22\n", a.Package)
	return os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644)
}

// CountDir measures the code distribution of every non-test .go file
// under dir (used for the protocol / application rows of Tables 3-4).
func CountDir(dir string) (CodeStats, error) {
	var total CodeStats
	entries, err := os.ReadDir(dir)
	if err != nil {
		return total, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".go" ||
			len(name) > 8 && name[len(name)-8:] == "_test.go" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return total, err
		}
		total.Add(CountSource(name, src))
	}
	return total, nil
}
