//go:build linux

package reactor

import (
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/events"
)

// This file makes the Reactor's Event Dispatcher literal on Linux: instead
// of one blocked reader goroutine per connection feeding the Event Source,
// a Poller blocks in epoll_wait(2) on every parked descriptor of its shard
// and batches readiness into PollReady events. Registration is
// edge-triggered (EPOLLET), so the kernel reports each burst of inbound
// bytes exactly once and the Communicator drains the socket to EAGAIN
// before the next event can matter — the select/recv event-loop shape of
// the original pattern, with connection read state held in a flat fd table
// rather than on goroutine stacks.

// PollerSupported reports whether this platform has a kernel readiness
// poller (true only on Linux); when false, Options.EventDriven falls back
// to the portable goroutine-per-connection read path.
const PollerSupported = true

// epolletFlag is EPOLLET as a uint32 bit. syscall.EPOLLET is declared as
// the untyped negative constant -0x80000000 on linux, which does not
// convert to the EpollEvent.Events field directly.
const epolletFlag uint32 = 1 << 31

// pollEntry is one parked connection in the flat fd table. wantWrite
// records whether EPOLLOUT is currently part of the descriptor's
// interest set, so Arm/DisarmWrite stay idempotent without an extra
// syscall.
type pollEntry struct {
	handle    Handle
	prio      events.Priority
	wantWrite bool
}

// Poller owns one epoll descriptor and the fd -> handle table of the
// connections parked on it. One Poller belongs to one runtime shard; its
// Run loop is the shard's kernel-event drain loop.
type Poller struct {
	epfd  int
	wakeR int
	wakeW int

	mu      sync.Mutex
	conns   map[int32]pollEntry
	closed  bool
	running bool

	destroyOnce sync.Once

	// OnBatch, when set before Run, observes each productive epoll_wait
	// return: the number of ready connections delivered and the time the
	// loop spent blocked waiting for them.
	OnBatch func(batch int, wait time.Duration)
}

// NewPoller creates an epoll instance plus the self-pipe used to interrupt
// a blocked Run loop on Close.
func NewPoller() (*Poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	var pipe [2]int
	if err := syscall.Pipe2(pipe[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, err
	}
	p := &Poller{
		epfd:  epfd,
		wakeR: pipe[0],
		wakeW: pipe[1],
		conns: make(map[int32]pollEntry),
	}
	// The wake pipe stays level-triggered: a pending wake byte must keep
	// the loop spinning until it observes the closed flag.
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(p.wakeR)}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p.wakeR, &ev); err != nil {
		p.destroy()
		return nil, err
	}
	return p, nil
}

// Add parks a connection: the descriptor joins the epoll interest set
// (edge-triggered, read + peer-hangup) and the table maps it back to its
// reactor handle. If the socket is already readable the kernel reports an
// event immediately, so bytes that raced the registration are not lost.
func (p *Poller) Add(fd int, h Handle, prio events.Priority) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrSourceClosed
	}
	p.conns[int32(fd)] = pollEntry{handle: h, prio: prio}
	p.mu.Unlock()
	ev := syscall.EpollEvent{
		Events: syscall.EPOLLIN | syscall.EPOLLRDHUP | epolletFlag,
		Fd:     int32(fd),
	}
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
		p.mu.Lock()
		delete(p.conns, int32(fd))
		p.mu.Unlock()
		return err
	}
	return nil
}

// ArmWrite adds EPOLLOUT to a parked descriptor's interest set. The
// modification re-primes the edge-triggered item, so if the socket is
// already writable the kernel reports an event immediately — arming
// after an EAGAIN therefore cannot lose the writability edge that may
// have arrived in between. Idempotent while armed.
func (p *Poller) ArmWrite(fd int) error {
	return p.setWrite(fd, true)
}

// DisarmWrite removes EPOLLOUT from a parked descriptor's interest set
// once its outbound queue has drained. Idempotent while disarmed.
func (p *Poller) DisarmWrite(fd int) error {
	return p.setWrite(fd, false)
}

func (p *Poller) setWrite(fd int, on bool) error {
	p.mu.Lock()
	e, ok := p.conns[int32(fd)]
	if !ok || p.closed {
		p.mu.Unlock()
		return ErrSourceClosed
	}
	if e.wantWrite == on {
		p.mu.Unlock()
		return nil
	}
	e.wantWrite = on
	p.conns[int32(fd)] = e
	p.mu.Unlock()
	ev := syscall.EpollEvent{
		Events: syscall.EPOLLIN | syscall.EPOLLRDHUP | epolletFlag,
		Fd:     int32(fd),
	}
	if on {
		ev.Events |= syscall.EPOLLOUT
	}
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, fd, &ev)
}

// Del removes a descriptor from the interest set and the table, reporting
// whether it was parked. Call before closing the descriptor — the kernel
// would drop the interest itself on close, but the table entry would leak.
func (p *Poller) Del(fd int) bool {
	p.mu.Lock()
	_, ok := p.conns[int32(fd)]
	delete(p.conns, int32(fd))
	p.mu.Unlock()
	if ok {
		_ = syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, fd, nil)
	}
	return ok
}

// Len returns the number of parked connections.
func (p *Poller) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// Run is the drain loop: it blocks in epoll_wait and emits one readiness
// notification per ready connection until Close. writable reports an
// EPOLLOUT edge (the socket drained below its send-buffer mark); a
// single epoll event carrying both halves emits the read notification
// first, then the write one, so inbound bytes are never starved behind a
// flush. Run owns the poller's descriptors and closes them on exit.
func (p *Poller) Run(emit func(h Handle, prio events.Priority, writable bool)) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.destroy()
		return
	}
	p.running = true
	p.mu.Unlock()
	defer p.destroy()

	evs := make([]syscall.EpollEvent, 128)
	var wakeBuf [16]byte
	for {
		start := time.Now()
		n, err := syscall.EpollWait(p.epfd, evs, -1)
		if err != nil {
			if err == syscall.EINTR {
				continue
			}
			return
		}
		wait := time.Since(start)
		batch := 0
		for i := 0; i < n; i++ {
			fd := evs[i].Fd
			if int(fd) == p.wakeR {
				_, _ = syscall.Read(p.wakeR, wakeBuf[:])
				p.mu.Lock()
				closed := p.closed
				p.mu.Unlock()
				if closed {
					return
				}
				continue
			}
			p.mu.Lock()
			e, ok := p.conns[fd]
			p.mu.Unlock()
			if !ok {
				// Deregistered between wait and dispatch (teardown race).
				continue
			}
			batch++
			flags := evs[i].Events
			writable := flags&syscall.EPOLLOUT != 0
			// Error and hangup conditions surface on the read path (the
			// drain's read maps them to a teardown cause), so a pure
			// EPOLLOUT event is the only one that skips the read emit.
			readable := !writable ||
				flags&(syscall.EPOLLIN|syscall.EPOLLRDHUP|syscall.EPOLLHUP|syscall.EPOLLERR) != 0
			if readable {
				emit(e.handle, e.prio, false)
			}
			if writable {
				emit(e.handle, e.prio, true)
			}
		}
		if batch > 0 && p.OnBatch != nil {
			p.OnBatch(batch, wait)
		}
	}
}

// Close stops the Run loop and releases the poller's descriptors. Safe to
// call whether or not Run was ever started; idempotent.
func (p *Poller) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	running := p.running
	p.mu.Unlock()
	_, _ = syscall.Write(p.wakeW, []byte{1})
	if !running {
		p.destroy()
	}
}

func (p *Poller) destroy() {
	p.destroyOnce.Do(func() {
		_ = syscall.Close(p.epfd)
		_ = syscall.Close(p.wakeR)
		_ = syscall.Close(p.wakeW)
	})
}

// ConnFD extracts a transport's raw descriptor for poller registration.
// The descriptor number is only stable while the net.Conn stays open;
// callers must deregister before closing it.
func ConnFD(sc syscall.Conn) (int, syscall.RawConn, error) {
	rc, err := sc.SyscallConn()
	if err != nil {
		return 0, nil, err
	}
	fd := -1
	if err := rc.Control(func(u uintptr) { fd = int(u) }); err != nil {
		return 0, nil, err
	}
	return fd, rc, nil
}

// NonblockRead performs one non-blocking read on a raw connection. The
// callback always returns true, so the runtime never parks the calling
// goroutine on readability — EAGAIN surfaces as again=true instead, which
// is exactly the edge-triggered drain's stop condition. n==0 with a nil
// error and again=false is EOF, as for read(2).
func NonblockRead(rc syscall.RawConn, buf []byte) (n int, again bool, err error) {
	var rn int
	var rerr error
	if cerr := rc.Read(func(fd uintptr) bool {
		for {
			rn, rerr = syscall.Read(int(fd), buf)
			if rerr == syscall.EINTR {
				continue
			}
			return true
		}
	}); cerr != nil {
		return 0, false, cerr
	}
	if rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK {
		return 0, true, nil
	}
	if rn < 0 {
		rn = 0
	}
	return rn, false, rerr
}

// NonblockWritev performs one non-blocking vectored write of segs, in
// order, on a raw connection; empty segments are skipped, and segs may
// hold at most 1024 of them (IOV_MAX). The callback always returns true,
// so the runtime never parks the calling goroutine on writability —
// EAGAIN surfaces as again=true, the cue to queue the residual and arm
// EPOLLOUT. A short count with again=false is not an error: writev(2)
// reports partial progress on a full socket buffer without EAGAIN; the
// caller parks the remainder exactly as it would after an explicit
// EAGAIN. The call allocates nothing: its iovec and the callback
// RawConn.Write takes come from a pool.
func NonblockWritev(rc syscall.RawConn, segs [][]byte) (n int, again bool, err error) {
	w := writevCalls.Get().(*writevCall)
	for _, seg := range segs {
		if len(seg) > 0 {
			w.iov = append(w.iov, syscall.Iovec{Base: &seg[0]})
			w.iov[len(w.iov)-1].SetLen(len(seg))
		}
	}
	if len(w.iov) > 0 {
		if err = rc.Write(w.call); err == nil {
			n, err = w.n, w.err
		}
	}
	clear(w.iov)
	w.iov, w.n, w.err = w.iov[:0], 0, nil
	writevCalls.Put(w)
	if err == syscall.EAGAIN || err == syscall.EWOULDBLOCK {
		return 0, true, nil
	}
	return n, false, err
}

// writevCall is the state of one NonblockWritev: the iovec the kernel
// reads and the result, with the callback bound to them once, when the
// pool makes the value — a closure built per call would escape into the
// RawConn interface and allocate every time.
type writevCall struct {
	iov  []syscall.Iovec
	n    int
	err  error
	call func(fd uintptr) bool
}

var writevCalls = sync.Pool{New: func() any {
	w := new(writevCall)
	w.call = w.writev
	return w
}}

// writev is the RawConn.Write callback: one writev(2), retried on EINTR.
func (w *writevCall) writev(fd uintptr) bool {
	for {
		r1, _, errno := syscall.Syscall(syscall.SYS_WRITEV, fd,
			uintptr(unsafe.Pointer(&w.iov[0])), uintptr(len(w.iov)))
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			w.n, w.err = 0, errno
		} else {
			w.n, w.err = int(r1), nil
		}
		return true
	}
}
