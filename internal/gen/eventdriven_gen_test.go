package gen

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/options"
)

// TestEventDrivenCrosscutWeaving asserts the kernel-event read path
// follows the generation-time weaving rule: a framework generated
// without the option contains no trace of the poller machinery (and no
// poller files at all), while a framework generated with it carries the
// full crosscut — the platform poller pair, the parked-connection drain
// state machine and the goroutine-path fallback.
func TestEventDrivenCrosscutWeaving(t *testing.T) {
	all := func(a *Artifact) string {
		var sb strings.Builder
		for _, name := range a.FileNames() {
			sb.Write(a.Files[name])
		}
		return sb.String()
	}
	gen := func(o options.Options) *Artifact {
		t.Helper()
		a, err := Generate("nserver", o)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	base := options.COPSHTTP()
	plainArt := gen(base)
	plain := all(plainArt)
	for _, absent := range []string{
		"poller", "readyPoll", "tryPollAttach", "pollDrain",
		"nonblockRead", "epoll", "eventDriven", "ParkedConns",
		"readyWrite", "sendPolled", "nonblockWrite", "outq",
		"maxOutboundBytes", "ParkedWrites", "EPOLLOUT",
	} {
		if strings.Contains(plain, absent) {
			t.Errorf("plain framework contains %q — crosscut not woven out", absent)
		}
	}
	for _, name := range plainArt.FileNames() {
		if name == "poller_linux.go" || name == "poller_other.go" {
			t.Errorf("plain framework emits %s", name)
		}
	}

	edArt := gen(base.WithEventDriven(true))
	ed := all(edArt)
	for _, present := range []string{
		"//go:build linux", "//go:build !linux",
		"const pollerSupported = true", "const pollerSupported = false",
		"syscall.EPOLL_CTL_ADD", "epolletFlag uint32 = 1 << 31",
		"func (c *Communicator) tryPollAttach(p *poller) bool",
		"n, again, _ := nonblockRead(c.raw, *bufp)",
		"var readBufs = sync.Pool",
		"func (s *Server) ParkedConns() int",
		"go c.readLoop()", // the fallback path must survive the weave
		// The write-side crosscut: parked outbound queues drained on
		// EPOLLOUT, with the blocking Send path kept as fallback.
		"case readyWrite:",
		"func (c *Communicator) sendPolled(data []byte) error",
		"func (c *Communicator) pollWriteDrain()",
		"func (p *poller) armWrite(fd int) error",
		"const maxOutboundBytes",
		"func (s *Server) ParkedWrites() int",
		"syscall.EPOLL_CTL_MOD",
	} {
		if !strings.Contains(ed, present) {
			t.Errorf("event-driven framework missing %q", present)
		}
	}

	// The read-timeout hardening interacts with the crosscut: a parked
	// socket performs no blocking read, so selecting both must weave the
	// activity-stamp sweep in; selecting event-driven alone must not.
	hardened := all(gen(base.WithHardening(5*time.Second, 0, 0).WithEventDriven(true)))
	if !strings.Contains(hardened, "func (s *Server) reapStalledPolled()") {
		t.Error("event-driven + read timeout missing the polled-conn sweep")
	}
	if !strings.Contains(hardened, "lastActive") {
		t.Error("event-driven + read timeout missing the activity stamp")
	}
	if strings.Contains(ed, "reapStalledPolled") || strings.Contains(ed, "lastActive") {
		t.Error("event-driven without read timeout wove in the sweep machinery")
	}

	// Same interaction on the write side: the parked-write scavenger and
	// its progress quantum need both event-driven and a write timeout.
	wHardened := all(gen(base.WithHardening(0, 5*time.Second, 0).WithEventDriven(true)))
	for _, present := range []string{
		"func (s *Server) reapStalledWrites()", "writeProgressQuantum",
		"errWriteStalled",
	} {
		if !strings.Contains(wHardened, present) {
			t.Errorf("event-driven + write timeout missing %q", present)
		}
	}
	if strings.Contains(ed, "reapStalledWrites") || strings.Contains(ed, "writeProgressQuantum") {
		t.Error("event-driven without write timeout wove in the write scavenger")
	}

	// Deselecting the option is byte-identical to never selecting it.
	if off := all(gen(base.WithEventDriven(true).WithEventDriven(false))); off != plain {
		t.Error("EventDriven=false output differs from plain output")
	}
}

// TestEventDrivenFrameworksCompile sweeps the crosscut against the
// options it interacts with (sharding, scheduling, thread pool, codec,
// hardening, idle reaping, profiling): every woven framework must
// compile standalone — including the non-linux stub, which the build
// tags select out on this platform but gofmt/parse still validate.
func TestEventDrivenFrameworksCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix build in -short mode")
	}
	combos := map[string]options.Options{
		"pool-async": options.COPSHTTP().WithEventDriven(true),
		"no-pool": func() options.Options {
			o := options.Options{DispatcherThreads: 2, Codec: true}
			return o.WithEventDriven(true)
		}(),
		"sharded-sched": options.COPSHTTP().WithScheduling(1, 8).
			WithShards(4).WithEventDriven(true),
		"hardened-idle-observed": func() options.Options {
			o := options.COPSHTTP().WithHardening(5*time.Second, 2*time.Second, 1<<20)
			o.ShutdownLongIdle = true
			o.IdleTimeout = time.Minute
			o.Profiling = true
			o.Logging = true
			o.Mode = options.Debug
			return o.WithShards(2).WithEventDriven(true)
		}(),
		"ftp": options.COPSFTP().WithEventDriven(true),
		// The parked-write file path: non-blocking streaming, residual
		// ranges behind duplicated descriptors, the write scavenger.
		"large-write-hardened": options.COPSHTTP().WithLargeFiles(64 << 10).
			WithHardening(5*time.Second, 2*time.Second, 1<<20).WithEventDriven(true),
	}
	for name, o := range combos {
		t.Run(name, func(t *testing.T) {
			a, err := Generate("nserver", o)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), name)
			if err := a.WriteTo(dir); err != nil {
				t.Fatal(err)
			}
			buildDir(t, dir)
		})
	}
}

// TestEventDrivenGenerationIsDeterministic: regenerate-and-diff must
// keep working with the kernel-event crosscut woven in.
func TestEventDrivenGenerationIsDeterministic(t *testing.T) {
	o := options.COPSHTTP().WithScheduling(1, 8).WithShards(4).WithEventDriven(true)
	a, err := Generate("nserver", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("nserver", o)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range a.FileNames() {
		if !bytes.Equal(a.Files[name], b.Files[name]) {
			t.Errorf("%s differs between generations", name)
		}
	}
	if fmt.Sprint(a.FileNames()) != fmt.Sprint(b.FileNames()) {
		t.Error("file sets differ between generations")
	}
}
