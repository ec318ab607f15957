// Package transport defines the network seam between the protocol
// stack (peer, client, DHT) and the medium it runs over. The
// default implementation is real TCP; internal/netsim provides an
// in-memory fabric with injectable latency, bandwidth caps, drops and
// partitions so the same wire code can be driven deterministically
// under go test -race.
package transport

import (
	"context"
	"net"
)

// Transport opens listeners and outbound connections. Implementations
// must be safe for concurrent use.
type Transport interface {
	// Listen binds addr (host:port, port 0 for ephemeral) and returns
	// a listener whose Addr().String() is dialable via DialContext.
	Listen(addr string) (net.Listener, error)

	// DialContext opens a connection to addr, honoring ctx
	// cancellation and deadline for the connection-establishment
	// phase.
	DialContext(ctx context.Context, addr string) (net.Conn, error)
}

// TCP is the production transport: plain TCP over the real network.
type TCP struct{}

// Listen binds a TCP listener.
func (TCP) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// DialContext opens a TCP connection.
func (TCP) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// Default is the transport used when a component's configuration
// leaves the transport nil.
var Default Transport = TCP{}
