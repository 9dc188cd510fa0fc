//go:build linux && (amd64 || arm64)

package sock

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The build tag is internal/dnsserver's recvmmsg path's (udp_linux.go),
// so the server takes the syscall half of both or of neither.

// Conn is a connected TCP socket and its peer.
type Conn struct {
	*os.File
	Peer netip.AddrPort
}

// Listener is a bound UDP socket or a listening TCP socket.
type Listener struct {
	*os.File
	addr netip.AddrPort
}

// Addr returns the address the socket is bound to.
func (l *Listener) Addr() netip.AddrPort { return l.addr }

// Listen binds a UDP socket (network "udp") or a listening TCP socket
// ("tcp") on addr (see ParseAddr), with the net package's defaults: a TCP
// socket has SO_REUSEADDR, so a port that still holds connections in
// TIME_WAIT binds, and the backlog of /proc/sys/net/core/somaxconn; a
// wildcard host (empty, 0.0.0.0 or ::) binds [::] dual-stack, or 0.0.0.0
// where the host has no IPv6.
func Listen(network, addr string) (_ *Listener, err error) {
	defer wrap(&err, "listen", network, addr)
	ap, err := ParseAddr(addr)
	if err != nil {
		return nil, err
	}
	stream, ip := network == "tcp", ap.Addr().Unmap()
	wildcard := !ip.IsValid() || ip.IsUnspecified()
	if wildcard {
		ip = netip.IPv6Unspecified()
	}
	fd, err := socket(ip, stream)
	if wildcard && errors.Is(err, syscall.EAFNOSUPPORT) {
		ip = netip.IPv4Unspecified()
		fd, err = socket(ip, stream)
	}
	if err != nil {
		return nil, err
	}
	if stream {
		err = os.NewSyscallError("setsockopt", syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1))
	}
	if err == nil {
		err = os.NewSyscallError("bind", syscall.Bind(fd, sockaddr(netip.AddrPortFrom(ip, ap.Port()))))
	}
	if err == nil && stream {
		err = os.NewSyscallError("listen", syscall.Listen(fd, backlog()))
	}
	var sa syscall.Sockaddr
	if err == nil {
		sa, err = syscall.Getsockname(fd)
		err = os.NewSyscallError("getsockname", err)
	}
	if err != nil {
		_ = syscall.Close(fd)
		return nil, err
	}
	bound := addrPort(sa)
	return &Listener{os.NewFile(uintptr(fd), network+" "+bound.String()), bound}, nil
}

// Accept waits for a connection and returns it with the net package's
// TCP options (tuneTCP). An aborted connection or an interrupted call is
// retried.
func (l *Listener) Accept() (*Conn, error) {
	rc, _ := l.SyscallConn() // fails only for a nil file
	var nfd int
	var sa syscall.Sockaddr
	var aerr error
	err := rc.Read(func(fd uintptr) bool {
		for {
			nfd, sa, aerr = syscall.Accept4(int(fd), syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
			if aerr != syscall.EINTR && aerr != syscall.ECONNABORTED {
				return aerr != syscall.EAGAIN
			}
		}
	})
	if err == nil {
		err = os.NewSyscallError("accept4", aerr)
	}
	if err != nil {
		return nil, err
	}
	tuneTCP(nfd)
	return &Conn{os.NewFile(uintptr(nfd), "tcp"), addrPort(sa)}, nil
}

// Dial connects to the TCP address addr (see ParseAddr; an empty host is
// 127.0.0.1) without holding a thread: connect is called from the
// runtime poller's readiness callback on the non-blocking socket, again
// each time the socket turns writable, until it says the connection is
// made or has failed. ctx ending first abandons it.
func Dial(ctx context.Context, addr string) (_ *Conn, err error) {
	defer wrap(&err, "dial", "tcp", addr)
	ap, err := ParseAddr(addr)
	if err != nil {
		return nil, err
	}
	if !ap.Addr().IsValid() {
		ap = netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), ap.Port())
	}
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	fd, err := socket(ap.Addr(), true)
	if err != nil {
		return nil, err
	}
	tuneTCP(fd)
	c := &Conn{os.NewFile(uintptr(fd), "tcp"), ap}
	stop := context.AfterFunc(ctx, func() { _ = c.SetWriteDeadline(time.Unix(1, 0)) })
	rc, _ := c.SyscallConn() // fails only for a nil file
	var cerr error
	err = rc.Write(func(fd uintptr) bool {
		cerr = syscall.Connect(int(fd), sockaddr(ap))
		return cerr != syscall.EINPROGRESS && cerr != syscall.EALREADY && cerr != syscall.EINTR
	})
	if err == nil && cerr != syscall.EISCONN {
		err = os.NewSyscallError("connect", cerr)
	}
	if !stop() { // ctx ended: the deadline it set may outlast the connect
		err = ctx.Err()
	}
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

// wrap prefixes a Listen or Dial error with the call, as net's are.
func wrap(err *error, op, network, addr string) {
	if *err != nil {
		*err = fmt.Errorf("%s %s %s: %w", op, network, addr, *err)
	}
}

// socket opens a non-blocking UDP or TCP socket of ip's family; an IPv6
// one takes IPv4 peers too, as the net package's do.
func socket(ip netip.Addr, stream bool) (int, error) {
	family, typ := syscall.AF_INET6, syscall.SOCK_DGRAM
	if ip.Is4() {
		family = syscall.AF_INET
	}
	if stream {
		typ = syscall.SOCK_STREAM
	}
	fd, err := syscall.Socket(family, typ|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err == nil && family == syscall.AF_INET6 {
		if err = syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0); err != nil {
			_ = syscall.Close(fd)
		}
	}
	return fd, os.NewSyscallError("socket", err)
}

// tuneTCP sets the net package's options on a TCP connection: no Nagle
// delay, so a pipelined answer is not held back behind the one before it,
// and keep-alive probes after 15 s idle, every 15 s, 9 of them. Like net,
// it ignores their errors.
func tuneTCP(fd int) {
	for _, o := range [...][3]int{
		{syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
		{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9},
	} {
		_ = syscall.SetsockoptInt(fd, o[0], o[1], o[2])
	}
}

// backlog is the listen backlog: somaxconn, the kernel's own cap, as net
// reads it (kernels before 4.1 keep it in 16 bits); SOMAXCONN without it.
var backlog = sync.OnceValue(func() int {
	b, _ := os.ReadFile("/proc/sys/net/core/somaxconn")
	if n, err := strconv.Atoi(strings.TrimSpace(string(b))); err == nil && n > 0 {
		return min(n, 1<<16-1)
	}
	return syscall.SOMAXCONN
})

func sockaddr(ap netip.AddrPort) syscall.Sockaddr {
	if ap.Addr().Is4() {
		return &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ap.Addr().As4()}
	}
	return &syscall.SockaddrInet6{Port: int(ap.Port()), Addr: ap.Addr().As16()}
}

func addrPort(sa syscall.Sockaddr) netip.AddrPort {
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port))
	case *syscall.SockaddrInet6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), uint16(sa.Port))
	}
	return netip.AddrPort{}
}
