//go:build !linux || (!amd64 && !arm64)

package sock

import (
	"context"
	"net"
	"net/netip"
)

// Where sock_linux.go does not build, the same API over the net package,
// whose defaults the Linux half copies.

// Conn is a connected TCP socket and its peer.
type Conn struct {
	net.Conn
	Peer netip.AddrPort
}

// Listener is a bound UDP socket (the embedded conn) or a listening TCP
// socket (tcp).
type Listener struct {
	*net.UDPConn
	tcp  *net.TCPListener
	addr netip.AddrPort
}

// Addr returns the address the socket is bound to.
func (l *Listener) Addr() netip.AddrPort { return l.addr }

// Listen binds a UDP socket (network "udp") or a listening TCP socket
// ("tcp") on addr (see ParseAddr).
func Listen(network, addr string) (*Listener, error) {
	ap, err := ParseAddr(addr)
	if err != nil {
		return nil, err
	}
	if network == "tcp" {
		ln, err := net.ListenTCP("tcp", net.TCPAddrFromAddrPort(ap))
		if err != nil {
			return nil, err
		}
		return &Listener{tcp: ln, addr: ln.Addr().(*net.TCPAddr).AddrPort()}, nil
	}
	c, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(ap))
	if err != nil {
		return nil, err
	}
	return &Listener{UDPConn: c, addr: c.LocalAddr().(*net.UDPAddr).AddrPort()}, nil
}

// Accept waits for a connection and returns it.
func (l *Listener) Accept() (*Conn, error) {
	c, err := l.tcp.AcceptTCP()
	if err != nil {
		return nil, err
	}
	return &Conn{c, c.RemoteAddr().(*net.TCPAddr).AddrPort()}, nil
}

// Close closes the socket.
func (l *Listener) Close() error {
	if l.tcp != nil {
		return l.tcp.Close()
	}
	return l.UDPConn.Close()
}

// Dial connects to the TCP address addr (see ParseAddr).
func Dial(ctx context.Context, addr string) (*Conn, error) {
	if _, err := ParseAddr(addr); err != nil {
		return nil, err
	}
	c, err := new(net.Dialer).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Conn{c, c.RemoteAddr().(*net.TCPAddr).AddrPort()}, nil
}
