package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"
)

// conn is a client connection on a blocking socket. The driver reads and
// writes with plain read(2)/write(2) instead of net.Conn: a blocked read
// is woken by the kernel directly, without a trip through the Go
// netpoller and scheduler, so less of each measured round trip is the
// generator's own overhead. The traced replay, whose server side runs in
// the driver too, uses a net.Conn instead (nc): a goroutine blocked in
// read(2) holds its scheduler slot, and the replayed server's goroutines
// would wait for it.
type conn struct {
	fd   int
	nc   net.Conn
	buf  []byte
	r, w int // unread bytes are buf[r:w]
}

var (
	errEOF       = errors.New("connection closed by server")
	errStatus    = errors.New("status is not 200")
	errLength    = errors.New("Content-Length differs from the file size")
	errBody      = errors.New("body differs from the generated file")
	errHeadLimit = errors.New("response head larger than the read buffer")
)

// ioTimeout bounds every blocking read and write, so a stuck server
// fails the request instead of hanging the driver.
var ioTimeout = syscall.Timeval{Sec: 5}

// dial connects to the server on a blocking socket that reads into buf;
// reconnecting workers pass the same buf again rather than allocate.
func dial(port int, buf []byte) (*conn, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, err
	}
	c := &conn{fd: fd, buf: buf}
	if err := c.setup(port); err != nil {
		c.close()
		return nil, fmt.Errorf("dial 127.0.0.1:%d: %w", port, err)
	}
	return c, nil
}

func (c *conn) setup(port int) error {
	if err := syscall.SetsockoptInt(c.fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1); err != nil {
		return err
	}
	if err := syscall.SetsockoptTimeval(c.fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &ioTimeout); err != nil {
		return err
	}
	if err := syscall.SetsockoptTimeval(c.fd, syscall.SOL_SOCKET, syscall.SO_SNDTIMEO, &ioTimeout); err != nil {
		return err
	}
	sa := &syscall.SockaddrInet4{Port: port, Addr: [4]byte{127, 0, 0, 1}}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := syscall.Connect(c.fd, sa)
		switch {
		case err == nil, err == syscall.EISCONN:
			return nil
		case err == syscall.EINTR, err == syscall.EALREADY, err == syscall.EINPROGRESS:
			// A signal interrupted the handshake; it completes in the
			// kernel, and the retry reports when it has.
			if time.Now().After(deadline) {
				return syscall.ETIMEDOUT
			}
			time.Sleep(20 * time.Microsecond)
		default:
			return err
		}
	}
}

func (c *conn) close() {
	if c.nc != nil {
		_ = c.nc.Close()
		return
	}
	_ = syscall.Close(c.fd)
}

// send writes all of b.
func (c *conn) send(b []byte) error {
	if c.nc != nil {
		_, err := c.nc.Write(b)
		return err
	}
	for len(b) > 0 {
		n, err := syscall.Write(c.fd, b)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// fill reads at least one more byte into the buffer, first moving unread
// bytes to its front.
func (c *conn) fill() error {
	if c.r > 0 {
		c.w = copy(c.buf, c.buf[c.r:c.w])
		c.r = 0
	}
	if c.w == len(c.buf) {
		return errHeadLimit
	}
	if c.nc != nil {
		n, err := c.nc.Read(c.buf[c.w:])
		c.w += n
		if n > 0 {
			return nil
		}
		if err == io.EOF {
			return errEOF
		}
		return err
	}
	for {
		n, err := syscall.Read(c.fd, c.buf[c.w:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return err
		}
		if n == 0 {
			return errEOF
		}
		c.w += n
		return nil
	}
}

var (
	headEnd   = []byte("\r\n\r\n")
	status200 = []byte("HTTP/1.1 200 ")
	clHeader  = []byte("content-length:")
)

// readHead consumes one response head, checks it is a 200 and returns its
// Content-Length.
func (c *conn) readHead() (int64, error) {
	for {
		if i := bytes.Index(c.buf[c.r:c.w], headEnd); i >= 0 {
			head := c.buf[c.r : c.r+i+2]
			c.r += i + 4
			return parseHead(head)
		}
		if err := c.fill(); err != nil {
			return 0, err
		}
	}
}

// parseHead checks the status line and extracts Content-Length from a
// head whose lines each end in CRLF.
func parseHead(head []byte) (int64, error) {
	if !bytes.HasPrefix(head, status200) {
		return 0, errStatus
	}
	for rest := head; len(rest) > 0; {
		i := bytes.Index(rest, headEnd[:2])
		line := rest[:i]
		rest = rest[i+2:]
		if len(line) < len(clHeader) || !bytes.EqualFold(line[:len(clHeader)], clHeader) {
			continue
		}
		v := bytes.TrimSpace(line[len(clHeader):])
		var n int64
		for _, ch := range v {
			if ch < '0' || ch > '9' {
				return 0, errLength
			}
			n = n*10 + int64(ch-'0')
		}
		if len(v) == 0 {
			return 0, errLength
		}
		return n, nil
	}
	return 0, errLength
}

// readBody consumes an n-byte body, comparing it with f's content when d
// is non-nil.
func (c *conn) readBody(n int64, d *docroot, f *file) error {
	for pos := int64(0); pos < n; {
		if c.r == c.w {
			c.r, c.w = 0, 0
			if err := c.fill(); err != nil {
				return err
			}
		}
		k := min(int64(c.w-c.r), n-pos)
		if d != nil && !d.verify(f, pos, c.buf[c.r:c.r+int(k)]) {
			return errBody
		}
		c.r += int(k)
		pos += k
	}
	return nil
}

// get reads one response for f and checks it: status 200, Content-Length
// equal to the file size, and — when verify is set — every body byte.
func (c *conn) get(d *docroot, f *file, verify bool) error {
	n, err := c.readHead()
	if err != nil {
		return err
	}
	if n != f.size {
		return errLength
	}
	if !verify {
		d = nil
	}
	return c.readBody(n, d, f)
}
