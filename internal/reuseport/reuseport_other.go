//go:build !linux

package reuseport

import "net"

const available = false

// listenTCP keeps Go's per-accept keep-alive path for a plain listener:
// whether an accepted socket inherits its listener's options is
// platform-specific.
func listenTCP(addr string, reusePort bool) (net.Listener, error) {
	if reusePort {
		return nil, ErrUnsupported
	}
	return net.Listen("tcp", addr)
}
