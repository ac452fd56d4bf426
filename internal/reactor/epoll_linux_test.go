//go:build linux

package reactor

import (
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/events"
)

// acceptPair dials ln and returns the client and accepted server ends.
func acceptPair(t *testing.T, ln net.Listener) (client, server net.Conn) {
	t.Helper()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(done)
			return
		}
		done <- c
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-done
	if !ok {
		t.Fatal("accept failed")
	}
	return client, server
}

// pollPair creates a connected non-blocking socket pair: index 0 is the
// "server" end registered with the poller, index 1 the "peer".
func pollPair(t *testing.T) [2]int {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		syscall.Close(fds[0])
		syscall.Close(fds[1])
	})
	return fds
}

func TestPollerEmitsReadiness(t *testing.T) {
	p, err := NewPoller()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Handle, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(func(h Handle, prio events.Priority, writable bool) {
			if !writable {
				got <- h
			}
		})
	}()

	fds := pollPair(t)
	const handle Handle = 42
	if err := p.Add(fds[0], handle, 0); err != nil {
		t.Fatal(err)
	}
	if n := p.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	if _, err := syscall.Write(fds[1], []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case h := <-got:
		if h != handle {
			t.Fatalf("emitted handle %d, want %d", h, handle)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no readiness event within 2s")
	}

	// Edge-triggered: with the data still unread, no further event fires
	// until new bytes arrive.
	select {
	case h := <-got:
		t.Fatalf("spurious second event for handle %d under EPOLLET", h)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := syscall.Write(fds[1], []byte("more")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("no event for new bytes under EPOLLET")
	}

	if !p.Del(fds[0]) {
		t.Fatal("Del reported fd untracked")
	}
	if p.Del(fds[0]) {
		t.Fatal("second Del reported fd tracked")
	}
	if n := p.Len(); n != 0 {
		t.Fatalf("Len after Del = %d, want 0", n)
	}

	p.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not exit after Close")
	}
	// Idempotent close, including after Run exit.
	p.Close()
}

func TestPollerAddExistingReadiness(t *testing.T) {
	p, err := NewPoller()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got := make(chan Handle, 1)
	go p.Run(func(h Handle, prio events.Priority, writable bool) {
		if writable {
			return
		}
		select {
		case got <- h:
		default:
		}
	})

	// Bytes written BEFORE registration must still produce an event: the
	// kernel reports current readiness at EPOLL_CTL_ADD even under ET.
	fds := pollPair(t)
	if _, err := syscall.Write(fds[1], []byte("early")); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(fds[0], 7, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case h := <-got:
		if h != 7 {
			t.Fatalf("handle %d, want 7", h)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pre-registration bytes produced no event")
	}
}

func TestPollerCloseWithoutRun(t *testing.T) {
	p, err := NewPoller()
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close()
}

func TestNonblockRead(t *testing.T) {
	// Exercise the helper through a real net.Conn pair so the RawConn
	// path (fd reference counting) is the one the runtime uses.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, serverEnd := acceptPair(t, ln)
	defer peer.Close()
	defer serverEnd.Close()

	sc := serverEnd.(syscall.Conn)
	_, raw, err := ConnFD(sc)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)

	// Nothing written yet: EAGAIN.
	n, again, err := NonblockRead(raw, buf)
	if err != nil || !again || n != 0 {
		t.Fatalf("empty socket: n=%d again=%v err=%v, want 0 true nil", n, again, err)
	}
	if _, err := peer.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		n, again, err = NonblockRead(raw, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !again {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bytes never became readable")
		}
		time.Sleep(time.Millisecond)
	}
	if n != 4 || string(buf[:4]) != "data" {
		t.Fatalf("read %q (%d bytes), want \"data\"", buf[:n], n)
	}

	// Peer close: EOF is n==0, again=false, err==nil.
	peer.Close()
	for {
		n, again, err = NonblockRead(raw, buf)
		if again {
			time.Sleep(time.Millisecond)
			continue
		}
		break
	}
	if n != 0 || err != nil {
		t.Fatalf("EOF: n=%d err=%v, want 0 nil", n, err)
	}
}

// fillSocket writes until the kernel send buffer is full (EAGAIN),
// returning the number of bytes it queued.
func fillSocket(t *testing.T, fd int) int {
	t.Helper()
	junk := make([]byte, 32<<10)
	total := 0
	for {
		n, err := syscall.Write(fd, junk)
		if n > 0 {
			total += n
		}
		if err == syscall.EAGAIN || err == syscall.EWOULDBLOCK {
			return total
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestPollerArmWriteEdge(t *testing.T) {
	p, err := NewPoller()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	writes := make(chan Handle, 16)
	go p.Run(func(h Handle, prio events.Priority, writable bool) {
		if writable {
			select {
			case writes <- h:
			default:
			}
		}
	})

	fds := pollPair(t)
	if err := p.Add(fds[0], 9, 0); err != nil {
		t.Fatal(err)
	}
	// Arming while the socket is writable must re-prime the edge and
	// deliver an immediate EPOLLOUT — this is what makes arming after an
	// EAGAIN race-free even if the peer drained in between.
	if err := p.ArmWrite(fds[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-writes:
	case <-time.After(2 * time.Second):
		t.Fatal("no EPOLLOUT for an already-writable socket after ArmWrite")
	}

	// Fill the buffer, re-arm, and check the edge fires only once the
	// peer makes room.
	queued := fillSocket(t, fds[0])
	if err := p.DisarmWrite(fds[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.ArmWrite(fds[0]); err != nil {
		t.Fatal(err)
	}
	// Drain any event raced in before the buffer filled.
	drainDeadline := time.After(100 * time.Millisecond)
drain:
	for {
		select {
		case <-writes:
		case <-drainDeadline:
			break drain
		}
	}
	buf := make([]byte, 256<<10)
	drained := 0
	for drained < queued {
		n, rerr := syscall.Read(fds[1], buf)
		if n > 0 {
			drained += n
		}
		if rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK {
			time.Sleep(time.Millisecond)
			continue
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
	}
	select {
	case h := <-writes:
		if h != 9 {
			t.Fatalf("EPOLLOUT handle %d, want 9", h)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no EPOLLOUT after the peer drained the socket")
	}

	// Disarmed: filling and draining again must not produce write events.
	if err := p.DisarmWrite(fds[0]); err != nil {
		t.Fatal(err)
	}
	// An edge the poller harvested before the disarm may still be on its
	// way to the channel (on one core the poller goroutine can lag), so
	// drain until it has gone quiet.
	for quiet := false; !quiet; {
		select {
		case <-writes:
		case <-time.After(50 * time.Millisecond):
			quiet = true
		}
	}
	fillSocket(t, fds[0])
	for {
		n, rerr := syscall.Read(fds[1], buf)
		if rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK {
			break
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
		if n == 0 {
			break
		}
	}
	select {
	case <-writes:
		t.Fatal("EPOLLOUT delivered while disarmed")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestNonblockWritev(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, serverEnd := acceptPair(t, ln)
	defer peer.Close()
	defer serverEnd.Close()

	sc := serverEnd.(syscall.Conn)
	_, raw, err := ConnFD(sc)
	if err != nil {
		t.Fatal(err)
	}

	// Two segments land as one contiguous stream.
	n, again, err := NonblockWritev(raw, []byte("head,"), []byte("body"))
	if err != nil || again || n != 9 {
		t.Fatalf("writev: n=%d again=%v err=%v, want 9 false nil", n, again, err)
	}
	got := make([]byte, 9)
	if _, err := peer.Read(got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "head,body" {
		t.Fatalf("peer read %q, want \"head,body\"", got)
	}

	// Empty segments are a no-op, not a syscall error.
	if n, again, err = NonblockWritev(raw, nil, nil); n != 0 || again || err != nil {
		t.Fatalf("empty writev: n=%d again=%v err=%v, want 0 false nil", n, again, err)
	}

	// Keep writing without a reader until the socket jams: the helper must
	// surface EAGAIN as again=true (possibly after partial counts), never
	// block, and never invent an error.
	chunk := make([]byte, 64<<10)
	sent := 0
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, again, err = NonblockWritev(raw, chunk[:16], chunk[16:])
		if err != nil {
			t.Fatal(err)
		}
		sent += n
		if again {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("socket never filled")
		}
	}
	if sent == 0 {
		t.Fatal("no bytes accepted before EAGAIN")
	}
}
