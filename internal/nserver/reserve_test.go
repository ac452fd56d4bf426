package nserver

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// The tests in this file pin reserved reply positions (Reserve, Slot): a
// reply filled out of turn waits in the queue for its predecessors, so
// the wire carries replies in request order on both corkSinks.

// reserveApp reserves a reply position for every request line but
// "plain X", which it answers at once with a plain Send of "X\n". Once
// want positions are held it hands them to the test, which fills them
// (see fill).
type reserveApp struct {
	want  int
	mu    sync.Mutex
	conn  *Conn
	slots []Slot
	lines []string
	ready chan struct{}
	gone  chan struct{}
}

func newReserveApp(want int) *reserveApp {
	return &reserveApp{want: want, ready: make(chan struct{}), gone: make(chan struct{})}
}

func (a *reserveApp) app(t *testing.T) App {
	return AppFuncs{
		Request: func(c *Conn, req any) {
			line := req.(string)
			if x, ok := strings.CutPrefix(line, "plain "); ok {
				if err := c.Send([]byte(x + "\n")); err != nil {
					t.Errorf("plain send: %v", err)
				}
				return
			}
			a.mu.Lock()
			defer a.mu.Unlock()
			a.conn = c
			a.slots = append(a.slots, c.Reserve())
			a.lines = append(a.lines, line)
			if len(a.slots) == a.want {
				close(a.ready)
			}
		},
		Close: func(*Conn, error) { close(a.gone) },
	}
}

// fill fills position i by its request line:
//
//	reply X     Reply of "X\n"
//	last X      Reply of "X\n", marked the connection's last
//	buffers N   SendBuffers of a "B " head and an N-byte body of 'v'
//	file O L    ReplyFile of L bytes of path from offset O; the file is
//	            closed as soon as ReplyFile returns
func (a *reserveApp) fill(t *testing.T, path string, i int) error {
	a.mu.Lock()
	slot, f := a.slots[i], strings.Fields(a.lines[i])
	a.mu.Unlock()
	n := func(j int) int {
		v, err := strconv.Atoi(f[j])
		if err != nil {
			t.Fatalf("bad request %q", a.lines[i])
		}
		return v
	}
	switch f[0] {
	case "reply":
		return slot.Reply(f[1] + "\n")
	case "last":
		return slot.Last(true).Reply(f[1] + "\n")
	case "buffers":
		return slot.SendBuffers([]byte("B "), bytes.Repeat([]byte("v"), n(1)))
	case "file":
		src, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		return slot.ReplyFile(fmt.Sprintf("FILE %d\n", n(2)), src, int64(n(1)), int64(n(2)))
	}
	t.Fatalf("unknown request %q", a.lines[i])
	return nil
}

// heldLeases returns the head leases the connection's queue holds.
func (a *reserveApp) heldLeases() []*bufpool.Buffer {
	a.mu.Lock()
	c := a.conn
	a.mu.Unlock()
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	var leases []*bufpool.Buffer
	for i := range c.outq {
		if l := c.outq[i].headLease; l != nil {
			leases = append(leases, l)
		}
	}
	return leases
}

// itemWithBody returns the queued item whose unsent body is n bytes.
func (a *reserveApp) itemWithBody(n int) (outItem, bool) {
	a.mu.Lock()
	c := a.conn
	a.mu.Unlock()
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	for _, it := range c.outq {
		if len(it.body) == n {
			return it, true
		}
	}
	return outItem{}, false
}

// settled checks, after the connection's traffic ended, that its queue is
// empty and each lease in leases went back to the pool (a released
// buffer has no bytes in use, and nothing else leases one meanwhile).
// Taking writeMu orders the check after the releases.
func (a *reserveApp) settled(t *testing.T, leases []*bufpool.Buffer) {
	t.Helper()
	c := a.conn
	waitFor(t, "the queue to empty", func() bool {
		c.writeMu.Lock()
		defer c.writeMu.Unlock()
		return len(c.outq) == 0 && c.held == 0
	})
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	for i, l := range leases {
		if len(l.Bytes()) != 0 {
			t.Fatalf("head lease %d of %d never released", i, len(leases))
		}
	}
}

// startReserve starts a server running a on sk's transport and dials it
// with a clamped receive buffer.
func startReserve(t *testing.T, sk corkSink, a *reserveApp) (*Server, net.Conn) {
	t.Helper()
	if !sk.wrapped {
		skipWithoutParking(t)
	}
	opts := testOptions()
	opts.Profiling = true
	opts.WriteTimeout = 5 * time.Second
	s, addr := startServerOn(t, Config{Options: opts, App: a.app(t), Codec: bufLineCodec{}}, sk.wrapped)
	c := slowClient(t, addr)
	_ = c.SetDeadline(time.Now().Add(20 * time.Second))
	return s, c
}

// readAsync reads len(want) bytes on its own goroutine, so a blocking
// sink's filler never waits on a client that is not reading yet.
func readAsync(c net.Conn, want []byte) <-chan error {
	done := make(chan error, 1)
	go func() {
		got := make([]byte, len(want))
		if _, err := io.ReadFull(c, got); err != nil {
			done <- err
			return
		}
		if i := firstDiff(got, want); i >= 0 {
			done <- fmt.Errorf("reply stream differs at byte %d of %d", i, len(want))
			return
		}
		done <- nil
	}()
	return done
}

// reserveFile writes an aperiodic file of n bytes, so a range sent from a
// wrong offset cannot match by accident.
func reserveFile(t *testing.T, n int) (string, []byte) {
	t.Helper()
	data := make([]byte, n)
	rand.New(rand.NewSource(2)).Read(data)
	path := filepath.Join(t.TempDir(), "range.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestReservedPositionsKeepRequestOrder fills four reserved positions in
// reverse request order — a rendered Reply, a file range over
// streamChunkSize, SendBuffers with a body too large for the socket
// buffers, and a plain Send answered at once between them — and gets
// the replies in request order. Filled out of turn, the file range
// waits on the queue's dup of the descriptor, its caller's file already
// closed; the final fill moves the whole run, parking on the raw sink.
// The SendBuffers head waits by reference, like its body, so three head
// leases wait behind the held position: the Reply's, the file range's and
// the plain Send's. Every head lease and the dup are released once it is
// sent.
func TestReservedPositionsKeepRequestOrder(t *testing.T) {
	const off, flen, bodyLen = 1000, 3<<20 + 7, 3 << 20
	path, data := reserveFile(t, off+flen)
	var want bytes.Buffer
	want.WriteString("a\n")
	fmt.Fprintf(&want, "FILE %d\n", flen)
	want.Write(data[off : off+flen])
	want.WriteString("p\n")
	want.WriteString("B " + strings.Repeat("v", bodyLen))
	want.WriteString("z\n")
	for _, sk := range corkSinks {
		t.Run(sk.name, func(t *testing.T) {
			a := newReserveApp(4)
			s, c := startReserve(t, sk, a)
			wire := fmt.Sprintf("reply a\nfile %d %d\nplain p\nbuffers %d\nreply z\n", off, flen, bodyLen)
			if _, err := io.WriteString(c, wire); err != nil {
				t.Fatal(err)
			}
			<-a.ready
			done := readAsync(c, want.Bytes())
			for i := 3; i >= 1; i-- {
				if err := a.fill(t, path, i); err != nil {
					t.Fatalf("fill %d: %v", i, err)
				}
			}
			if n := openDescriptorsOf(t, path); n != 1 {
				t.Fatalf("%d descriptors of the file behind the held position, want the queue's one dup", n)
			}
			if s.ParkedWrites() != 0 || s.OutboundQueuedBytes() != 0 {
				t.Fatalf("held replies counted as parked: conns=%d bytes=%d", s.ParkedWrites(), s.OutboundQueuedBytes())
			}
			leases := a.heldLeases()
			if len(leases) != 3 {
				t.Fatalf("%d head leases behind the held position, want 3", len(leases))
			}
			if it, ok := a.itemWithBody(bodyLen); !ok || it.headLease != nil || string(it.head) != "B " {
				t.Fatalf("SendBuffers item behind the held position: found %v, lease %v, head %q; want its head by reference", ok, it.headLease, it.head)
			}
			if err := a.fill(t, path, 0); err != nil {
				t.Fatalf("fill 0: %v", err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			a.settled(t, leases)
			waitFor(t, "the dup to close", func() bool { return openDescriptorsOf(t, path) == 0 })
			if snap := s.Profile().Snapshot(); snap.BytesStreamed != flen {
				t.Fatalf("BytesStreamed = %d, want %d", snap.BytesStreamed, flen)
			}
		})
	}
}

// TestReservedBehindParkedQueue fills the first position with a reply
// too large for the socket buffers, so on the raw sink it parks, then
// fills the third (a file range, behind the still-held second) and the
// second: each joins the parked run once nothing held precedes it, and
// the pump delivers all three in order.
func TestReservedBehindParkedQueue(t *testing.T) {
	const flen, bodyLen = 2<<20 + 3, 6 << 20
	path, data := reserveFile(t, flen)
	var want bytes.Buffer
	want.WriteString("B " + strings.Repeat("v", bodyLen))
	want.WriteString("x\n")
	fmt.Fprintf(&want, "FILE %d\n", flen)
	want.Write(data)
	for _, sk := range corkSinks {
		t.Run(sk.name, func(t *testing.T) {
			a := newReserveApp(3)
			s, c := startReserve(t, sk, a)
			if _, err := io.WriteString(c, fmt.Sprintf("buffers %d\nreply x\nfile 0 %d\n", bodyLen, flen)); err != nil {
				t.Fatal(err)
			}
			<-a.ready
			var done <-chan error
			if sk.wrapped {
				done = readAsync(c, want.Bytes())
			}
			for _, i := range []int{0, 2, 1} {
				if err := a.fill(t, path, i); err != nil {
					t.Fatalf("fill %d: %v", i, err)
				}
				if i == 0 && !sk.wrapped && s.ParkedWrites() != 1 {
					t.Fatalf("ParkedWrites = %d after the large fill, want 1", s.ParkedWrites())
				}
			}
			if done == nil {
				done = readAsync(c, want.Bytes())
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			a.settled(t, nil)
			waitFor(t, "the dup to close", func() bool { return openDescriptorsOf(t, path) == 0 })
		})
	}
}

// TestReservedLastDropsTheRest marks the second of four positions the
// connection's last: filled in reverse order, the replies up to it arrive
// and the connection closes, while the file range and the reply behind
// it are released unsent — the file's dup closed, every head lease back
// in the pool.
func TestReservedLastDropsTheRest(t *testing.T) {
	const flen = 1 << 20
	path, _ := reserveFile(t, flen)
	for _, sk := range corkSinks {
		t.Run(sk.name, func(t *testing.T) {
			a := newReserveApp(4)
			_, c := startReserve(t, sk, a)
			if _, err := io.WriteString(c, fmt.Sprintf("reply a\nlast b\nfile 0 %d\nreply c\n", flen)); err != nil {
				t.Fatal(err)
			}
			<-a.ready
			for i := 3; i >= 1; i-- {
				if err := a.fill(t, path, i); err != nil {
					t.Fatalf("fill %d: %v", i, err)
				}
			}
			leases := a.heldLeases()
			if len(leases) != 3 {
				t.Fatalf("%d head leases behind the held position, want 3", len(leases))
			}
			if err := a.fill(t, path, 0); err != nil {
				t.Fatalf("fill 0: %v", err)
			}
			readStream(t, c, []byte("a\nb\n"))
			var b [1]byte
			if n, err := c.Read(b[:]); n != 0 || err != io.EOF {
				t.Fatalf("read %d bytes (%v) after the last reply, want EOF", n, err)
			}
			<-a.gone
			a.settled(t, leases)
			if n := openDescriptorsOf(t, path); n != 0 {
				t.Fatalf("%d descriptors of the file survive the connection", n)
			}
		})
	}
}

// TestReservedTeardownReleasesHeld resets a connection with a position
// still held and a file range filled behind it: the teardown releases
// both, closing the queue's dup, and filling the held position afterwards
// returns ErrConnClosed.
func TestReservedTeardownReleasesHeld(t *testing.T) {
	const flen = 1 << 20
	path, _ := reserveFile(t, flen)
	for _, sk := range corkSinks {
		t.Run(sk.name, func(t *testing.T) {
			a := newReserveApp(2)
			_, c := startReserve(t, sk, a)
			if _, err := io.WriteString(c, fmt.Sprintf("reply a\nfile 0 %d\n", flen)); err != nil {
				t.Fatal(err)
			}
			<-a.ready
			if err := a.fill(t, path, 1); err != nil {
				t.Fatalf("fill 1: %v", err)
			}
			leases := a.heldLeases()
			if n := openDescriptorsOf(t, path); n != 1 {
				t.Fatalf("%d descriptors of the file behind the held position, want 1", n)
			}
			_ = c.(*net.TCPConn).SetLinger(0)
			c.Close()
			<-a.gone
			a.settled(t, leases)
			if n := openDescriptorsOf(t, path); n != 0 {
				t.Fatalf("%d descriptors of the file survive the connection", n)
			}
			if err := a.fill(t, path, 0); err != ErrConnClosed {
				t.Fatalf("filling after teardown: %v, want ErrConnClosed", err)
			}
		})
	}
}

// TestReservedFillStopsAtHeld fills the first and third of three
// positions: the first goes out at once, the third waits behind the
// still-held second — no byte of it may ride along in the first's
// gathered write — and filling the second sends both.
func TestReservedFillStopsAtHeld(t *testing.T) {
	for _, sk := range corkSinks {
		t.Run(sk.name, func(t *testing.T) {
			a := newReserveApp(3)
			_, c := startReserve(t, sk, a)
			if _, err := io.WriteString(c, "reply a\nreply b\nreply c\n"); err != nil {
				t.Fatal(err)
			}
			<-a.ready
			for _, i := range []int{2, 0} {
				if err := a.fill(t, "", i); err != nil {
					t.Fatalf("fill %d: %v", i, err)
				}
			}
			readStream(t, c, []byte("a\n"))
			_ = c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			var b [1]byte
			if n, err := c.Read(b[:]); n != 0 {
				t.Fatalf("read %q (%v) while the second position is held", b[:n], err)
			}
			_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if err := a.fill(t, "", 1); err != nil {
				t.Fatalf("fill 1: %v", err)
			}
			readStream(t, c, []byte("b\nc\n"))
			a.settled(t, nil)
		})
	}
}
