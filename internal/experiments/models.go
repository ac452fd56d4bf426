package experiments

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/des"
	"repro/internal/eventproc"
	"repro/internal/options"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// serverModel is the interface both simulated servers present to the
// client population.
type serverModel interface {
	// Listener is the connection-establishment endpoint.
	Listener() *simnet.Listener
	// Request serves one request for the given file; done runs when the
	// response has fully arrived at the client.
	Request(file workload.FileSpec, prio int, done func())
	// ConnOpened/ConnClosed bracket one persistent connection.
	ConnOpened()
	ConnClosed()
	// Served returns completed responses.
	Served() uint64
}

// fsBuffer models the OS file-system buffer cache both servers enjoy: an
// LRU over the file population, implemented with the real cache package
// (sizes only; content is irrelevant to the simulation).
type fsBuffer struct {
	c *cache.Cache
}

func newFSBuffer(capacity int64) *fsBuffer {
	if capacity <= 0 {
		return nil
	}
	c, err := cache.New(capacity, options.LRU, cache.Config{})
	if err != nil {
		panic(fmt.Sprintf("experiments: fs buffer: %v", err))
	}
	return &fsBuffer{c: c}
}

// hit records an access, reporting residency, and inserts on miss.
func (b *fsBuffer) hit(f workload.FileSpec) bool {
	if b == nil {
		return false
	}
	if _, ok := b.c.Get(f.Path); ok {
		return true
	}
	b.c.Put(f.Path, make([]byte, f.Size))
	return false
}

// copsModel is the event-driven COPS-HTTP queueing model. CPU work runs
// on a station of CPUs servers whose per-request service time grows with
// the number of open connections (selector scans / GC); disk reads run on
// the file-I/O station behind the real 20 MB LRU cache; responses cross
// the shared link. Option O8 swaps the CPU waiting line for the real
// quota discipline; option O9 gates the listener with the real watermark
// controller.
type copsModel struct {
	p    Params
	net  *simnet.Net
	ln   *simnet.Listener
	cpu  *des.Station
	disk *des.Station

	userCache *cache.Cache // the framework's O6 cache (nil when off)
	fsBuf     *fsBuffer

	openConns int
	served    uint64
	// decodeExtra is Fig. 6's 50ms decode burn.
	decodeExtra time.Duration
	// overload is the O9 controller (nil when off).
	overload *eventproc.Overload
}

// queueLenner adapts a des.Station to the overload controller.
type queueLenner struct{ st *des.Station }

func (q queueLenner) QueueLen() int { return q.st.QueueLen() }

// newCopsModel builds the COPS-HTTP model. quotas non-nil enables the O8
// quota discipline on the CPU queue; watermarks (high, low) > 0 enable O9.
func newCopsModel(p Params, net *simnet.Net, quotas []int, highWM, lowWM int, decodeExtra time.Duration) *copsModel {
	m := &copsModel{p: p, net: net, decodeExtra: decodeExtra}
	var q des.JobQueue
	if quotas != nil {
		q = des.NewQuotaQueue(quotas)
	}
	m.cpu = des.NewStation(net.Kernel(), p.CPUs, q)
	m.disk = des.NewStation(net.Kernel(), p.DiskThreads, nil)
	if p.CopsCacheBytes > 0 {
		c, err := cache.New(p.CopsCacheBytes, options.LRU, cache.Config{})
		if err != nil {
			panic(fmt.Sprintf("experiments: cops cache: %v", err))
		}
		m.userCache = c
	}
	m.fsBuf = newFSBuffer(p.FSBufferBytes)
	m.ln = net.NewListener(p.Backlog)
	if highWM > 0 {
		m.overload = eventproc.NewOverload(nil)
		if err := m.overload.Watch("reactive", queueLenner{m.cpu}, highWM, lowWM); err != nil {
			panic(fmt.Sprintf("experiments: overload: %v", err))
		}
		m.ln.Gate = m.overload.AcceptAllowed
	}
	// The event-driven server accepts every connection immediately: one
	// acceptor re-arms itself forever (subject to the O9 gate).
	var acceptLoop func()
	acceptLoop = func() { m.ln.Accept(func(*simnet.Conn) { acceptLoop() }) }
	acceptLoop()
	return m
}

func (m *copsModel) Listener() *simnet.Listener { return m.ln }
func (m *copsModel) ConnOpened()                { m.openConns++ }
func (m *copsModel) ConnClosed()                { m.openConns-- }
func (m *copsModel) Served() uint64             { return m.served }

// service returns the per-request CPU time at the current load.
func (m *copsModel) service() time.Duration {
	return m.p.CopsBaseService +
		time.Duration(m.openConns)*m.p.CopsPerConnService +
		m.decodeExtra
}

// Request runs the five-step pipeline in queueing form: uplink transfer,
// CPU (decode+handle), cache/disk, downlink transfer.
func (m *copsModel) Request(file workload.FileSpec, prio int, done func()) {
	m.net.Transfer(m.p.RequestBytes, func() {
		m.cpu.Submit(des.Job{Prio: prio, Service: m.service(), Done: func() {
			// The CPU queue drained by one: re-evaluate the accept gate.
			if m.overload != nil {
				m.ln.Poke()
			}
			m.fetch(file, prio, func() {
				m.net.Transfer(file.Size, func() {
					m.served++
					done()
				})
			})
		}})
	})
}

// fetch resolves the file bytes: user cache, then FS buffer, then disk.
func (m *copsModel) fetch(file workload.FileSpec, prio int, done func()) {
	if m.userCache != nil {
		if _, ok := m.userCache.Get(file.Path); ok {
			done()
			return
		}
	}
	if m.fsBuf.hit(file) {
		if m.userCache != nil {
			m.userCache.Put(file.Path, make([]byte, file.Size))
		}
		done()
		return
	}
	hold := m.p.DiskBase + time.Duration(float64(file.Size)/m.p.DiskBandwidth*float64(time.Second))
	m.disk.Submit(des.Job{Prio: prio, Service: hold, Done: func() {
		if m.userCache != nil {
			m.userCache.Put(file.Path, make([]byte, file.Size))
		}
		done()
	}})
}

// CacheStats exposes the user cache counters (Fig. 3 diagnostics).
func (m *copsModel) CacheStats() cache.Stats {
	if m.userCache == nil {
		return cache.Stats{}
	}
	return m.userCache.Stats()
}

// apacheModel is the process-per-connection baseline: a bounded pool of
// worker processes, each bound to one connection from accept to close.
// Its per-request CPU time grows with the number of busy workers (the
// context-switch and scheduling overhead of the multiprogramming model);
// excess connections wait in the backlog and suffer SYN drops.
type apacheModel struct {
	p      Params
	net    *simnet.Net
	ln     *simnet.Listener
	cpu    *des.Station
	disk   *des.Station
	fsBuf  *fsBuffer
	busy   int
	served uint64
}

func newApacheModel(p Params, net *simnet.Net, handleExtra time.Duration) *apacheModel {
	m := &apacheModel{p: p, net: net}
	m.p.ApacheBaseService += handleExtra
	m.cpu = des.NewStation(net.Kernel(), p.CPUs, nil)
	m.disk = des.NewStation(net.Kernel(), p.DiskThreads, nil)
	m.fsBuf = newFSBuffer(p.FSBufferBytes)
	m.ln = net.NewListener(p.Backlog)
	// One outstanding Accept per idle worker process.
	for i := 0; i < p.ApacheWorkers; i++ {
		m.acceptOne()
	}
	return m
}

// acceptOne parks one worker in accept; the connection occupies it until
// ConnClosed (which re-arms the accept).
func (m *apacheModel) acceptOne() {
	m.ln.Accept(func(*simnet.Conn) {
		m.busy++
	})
}

func (m *apacheModel) Listener() *simnet.Listener { return m.ln }
func (m *apacheModel) ConnOpened()                {}
func (m *apacheModel) ConnClosed() {
	m.busy--
	m.acceptOne()
}
func (m *apacheModel) Served() uint64 { return m.served }

func (m *apacheModel) service() time.Duration {
	return m.p.ApacheBaseService + time.Duration(m.busy)*m.p.ApachePerWorkerService
}

// Request is the blocking per-process request path: uplink, CPU,
// buffer-cache/disk, downlink.
func (m *apacheModel) Request(file workload.FileSpec, prio int, done func()) {
	m.net.Transfer(m.p.RequestBytes, func() {
		m.cpu.Submit(des.Job{Service: m.service(), Done: func() {
			finish := func() {
				m.net.Transfer(file.Size, func() {
					m.served++
					done()
				})
			}
			if m.fsBuf.hit(file) {
				finish()
				return
			}
			hold := m.p.DiskBase + time.Duration(float64(file.Size)/m.p.DiskBandwidth*float64(time.Second))
			m.disk.Submit(des.Job{Service: hold, Done: finish})
		}})
	})
}
