//go:build linux

package nserver

import (
	"context"
	"net"
	"os"
	"syscall"
)

// keepAliveOpts are Go's keep-alive defaults for accepted TCP connections
// (net's defaultTCPKeepAliveIdle, Interval and Count: 15 s, 15 s, 9
// probes), as socket options.
var keepAliveOpts = [...]struct{ level, opt, val int }{
	{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9},
}

// listen binds one TCP listener on addr. Keep-alive is set once, on the
// listening socket, through the ListenConfig control hook: Linux copies
// it into every socket accept returns, so the listener accepts with
// KeepAlive < 0 and no connection pays Go's four per-accept setsockopt
// calls for the same values.
func listen(addr string) (net.Listener, error) {
	lc := net.ListenConfig{
		KeepAlive: -1,
		Control: func(network, address string, c syscall.RawConn) error {
			var serr error
			if err := c.Control(func(fd uintptr) {
				for _, o := range keepAliveOpts {
					if serr == nil {
						serr = syscall.SetsockoptInt(int(fd), o.level, o.opt, o.val)
					}
				}
			}); err != nil {
				return err
			}
			return os.NewSyscallError("setsockopt", serr)
		},
	}
	return lc.Listen(context.Background(), "tcp", addr)
}
