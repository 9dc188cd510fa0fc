//go:build linux && (amd64 || arm64)

package dnsserver

import (
	"net/netip"
	"syscall"
	"unsafe"
)

// serveUDP's I/O on Linux: recvmmsg and sendmmsg with MSG_DONTWAIT inside
// the shared socket's RawConn.Read and Write, so blocking, Shutdown's
// read-deadline unblock and Close still go through the netpoller. The
// build tag is mmsghdr's: its layout is the 64-bit ABI.

const udpBatchSize = 32 // datagrams one call receives, at most

// mmsghdr is struct mmsghdr of recvmmsg(2).
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// udpBatch is one worker's slots — queries of up to maxTCPQuery bytes,
// responses of up to respBufSize — and the headers the two calls read
// and write. A response goes to the sockaddr its query came from, copied
// verbatim. No header needs a reset between calls: the kernel rewrites
// what it returns, and Namelen stays the size of the socket's one family.
// The RawConn callbacks are built once, as a closure made per call
// allocates; they send messages [off, k) and leave the result in n, err.
type udpBatch struct {
	rc             syscall.RawConn
	in, out        [udpBatchSize]mmsghdr
	from, to       [udpBatchSize]syscall.RawSockaddrInet6
	inIov, outIov  [udpBatchSize]syscall.Iovec
	recvFn, sendFn func(fd uintptr) bool
	off, k, n      int
	err            error
	buf            [udpBatchSize][maxTCPQuery]byte // last, as the collector scans up to the last pointer
	resp           [udpBatchSize][respBufSize]byte
}

func newUDPBatch(conn syscall.Conn) *udpBatch {
	b := new(udpBatch)
	b.rc, _ = conn.SyscallConn() // fails only for a nil conn
	for i := range b.in {
		b.inIov[i] = syscall.Iovec{Base: &b.buf[i][0], Len: maxTCPQuery}
		b.in[i].hdr = syscall.Msghdr{Name: (*byte)(unsafe.Pointer(&b.from[i])), Namelen: syscall.SizeofSockaddrInet6, Iov: &b.inIov[i], Iovlen: 1}
		b.out[i].hdr = syscall.Msghdr{Name: (*byte)(unsafe.Pointer(&b.to[i])), Iov: &b.outIov[i], Iovlen: 1}
	}
	// Raw: neither call can block, so neither need enter the scheduler's
	// syscall state, ≈ 0.1 µs a call: a sixth of a one-datagram receive.
	b.recvFn = func(fd uintptr) bool {
		r, _, e := syscall.RawSyscall6(syscall.SYS_RECVMMSG, fd, uintptr(unsafe.Pointer(&b.in[0])), udpBatchSize, syscall.MSG_DONTWAIT, 0, 0)
		return b.done(r, e)
	}
	b.sendFn = func(fd uintptr) bool {
		r, _, e := syscall.RawSyscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&b.out[b.off])), uintptr(b.k-b.off), syscall.MSG_DONTWAIT, 0, 0)
		return b.done(r, e)
	}
	return b
}

// done records a call's result, unless it is EAGAIN: then RawConn waits
// for the socket and calls again.
func (b *udpBatch) done(r uintptr, e syscall.Errno) bool {
	if e == syscall.EAGAIN {
		return false
	}
	b.n, b.err = int(r), nil
	if e != 0 {
		b.n, b.err = 0, e
	}
	return true
}

// recv waits for a datagram and receives what the socket holds.
func (b *udpBatch) recv() (int, error) {
	if err := b.rc.Read(b.recvFn); err != nil {
		return 0, err
	}
	return b.n, b.err
}

func (b *udpBatch) query(i int) (wire []byte, from netip.Addr, oversized bool) {
	return b.buf[i][:b.in[i].len], sockaddrPort(&b.from[i]).Addr(), b.in[i].hdr.Flags&syscall.MSG_TRUNC != 0
}

// stage makes resp, the response to datagram i, outgoing message k.
func (b *udpBatch) stage(k, i int, resp []byte) {
	b.to[k], b.out[k].hdr.Namelen = b.from[i], b.in[i].hdr.Namelen
	b.outIov[k] = syscall.Iovec{Base: &resp[0], Len: uint64(len(resp))}
}

// send sends messages [off, k) in one call and returns how many went
// out. The call stops at the first message it cannot send; the error is
// that message's when none went out before it.
func (b *udpBatch) send(off, k int) (int, error) {
	b.off, b.k = off, k
	if err := b.rc.Write(b.sendFn); err != nil {
		return 0, err
	}
	return b.n, b.err
}

func (b *udpBatch) dest(k int) netip.AddrPort { return sockaddrPort(&b.to[k]) }

// sockaddrPort decodes a sockaddr_in or sockaddr_in6; the big-endian port
// is at the same offset in both.
func sockaddrPort(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	port := uint16(p[0])<<8 | uint16(p[1])
	if sa.Family == syscall.AF_INET {
		return netip.AddrPortFrom(netip.AddrFrom4((*syscall.RawSockaddrInet4)(unsafe.Pointer(sa)).Addr), port)
	}
	return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), port)
}
