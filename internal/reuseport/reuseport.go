// Package reuseport binds N listening sockets to one TCP address with
// SO_REUSEPORT, the kernel-level accept sharding the multi-reactor
// runtime prefers on Linux: each shard owns a full listener, the kernel
// hashes incoming connections across them, and no accept lock is ever
// shared between shards.
//
// On platforms without SO_REUSEPORT support (or when the option is
// refused at bind time) Listeners returns ErrUnsupported and callers
// fall back to a single listener whose accepted connections are fanned
// out across shards in user space — same semantics, one shared accept
// path. Listen binds that single listener.
//
// On Linux both kinds of listener carry Go's keep-alive defaults on the
// listening socket itself, which every accepted socket inherits, instead
// of setting them again on each accepted connection.
package reuseport

import (
	"errors"
	"net"
)

// ErrUnsupported reports that per-shard SO_REUSEPORT listeners are not
// available on this platform; callers should fall back to single-listener
// accept fan-out.
var ErrUnsupported = errors.New("reuseport: not supported on this platform")

// Listeners binds n TCP listeners to addr, all sharing the port via
// SO_REUSEPORT. When addr requests an ephemeral port (":0"), the port
// the first bind receives is pinned for the remaining n-1. On error any
// already-bound listeners are closed.
func Listeners(addr string, n int) ([]net.Listener, error) {
	if n <= 0 {
		return nil, errors.New("reuseport: listener count must be positive")
	}
	lns := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := listenTCP(addr, true)
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		// Pin the resolved address so an ephemeral-port request binds
		// every subsequent listener to the same port.
		addr = ln.Addr().String()
	}
	return lns, nil
}

// Listen binds one TCP listener on addr. Its accepted connections carry
// the keep-alive options Go's own accept path would give them.
func Listen(addr string) (net.Listener, error) { return listenTCP(addr, false) }

// Available reports whether this platform can bind SO_REUSEPORT
// listeners at all (it does not probe a bind).
func Available() bool { return available }
