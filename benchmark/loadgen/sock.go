package loadgen

import (
	"errors"
	"fmt"
	"net/netip"
	"syscall"
	"time"
)

// sock is a connected, non-blocking loopback socket driven by plain
// read/write system calls. The load loop polls it instead of parking
// in the Go netpoller: a send leaves at its due time to within the
// cost of a clock read, and a response is timestamped when the kernel
// has it, not when the scheduler next runs the reader.
type sock struct {
	fd     int
	stream bool
}

// dial connects a UDP (stream=false) or TCP socket to addr. A TCP
// connect blocks until established or refused, then the socket is
// switched to non-blocking.
func dial(addr netip.AddrPort, stream bool) (*sock, error) {
	typ := syscall.SOCK_DGRAM
	if stream {
		typ = syscall.SOCK_STREAM
	}
	fd, err := syscall.Socket(syscall.AF_INET, typ|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("loadgen: socket: %w", err)
	}
	sa := &syscall.SockaddrInet4{Port: int(addr.Port()), Addr: addr.Addr().As4()}
	if err := syscall.Connect(fd, sa); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("loadgen: connect %s: %w", addr, err)
	}
	if stream {
		// Queries are small and latency-timed: never wait to coalesce.
		if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1); err != nil {
			syscall.Close(fd)
			return nil, fmt.Errorf("loadgen: TCP_NODELAY: %w", err)
		}
	}
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("loadgen: nonblock: %w", err)
	}
	return &sock{fd: fd, stream: stream}, nil
}

// close is safe to call twice: a second close must not hit whatever
// has been given the descriptor's number since.
func (s *sock) close() {
	if s.fd >= 0 {
		syscall.Close(s.fd)
		s.fd = -1
	}
}

// recv reads what is available into b: n > 0 bytes, or 0 when nothing
// is waiting. A refused datagram (the ICMP answer to a send made
// before the server bound its port) also reads as "nothing yet".
func (s *sock) recv(b []byte) (int, error) {
	for {
		n, err := syscall.Read(s.fd, b)
		switch {
		case err == nil && n > 0:
			return n, nil
		case err == nil && s.stream:
			return 0, errors.New("loadgen: connection closed by server")
		case err == nil, err == syscall.EAGAIN, err == syscall.ECONNREFUSED && !s.stream:
			return 0, nil
		case err == syscall.EINTR:
			continue
		default:
			return 0, fmt.Errorf("loadgen: read: %w", err)
		}
	}
}

// send writes all of b. A full stream buffer is retried for up to
// timeout; for a datagram socket "would block" and "refused" drop the
// datagram, which the timeout accounting then reports.
func (s *sock) send(b []byte, timeout time.Duration) error {
	var stalled time.Time
	for len(b) > 0 {
		n, err := syscall.Write(s.fd, b)
		switch {
		case err == nil:
			b = b[n:]
		case err == syscall.EINTR:
		case !s.stream && (err == syscall.EAGAIN || err == syscall.ECONNREFUSED):
			return nil
		case err == syscall.EAGAIN:
			if stalled.IsZero() {
				stalled = time.Now()
			} else if time.Since(stalled) > timeout {
				return errors.New("loadgen: write stalled past the timeout")
			}
		default:
			return fmt.Errorf("loadgen: write: %w", err)
		}
	}
	return nil
}
