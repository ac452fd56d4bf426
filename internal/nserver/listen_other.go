//go:build !linux

package nserver

import "net"

// listen binds a plain TCP listener on addr and keeps Go's per-accept
// keep-alive path: whether an accepted socket inherits its listener's
// options is platform-specific.
func listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }
