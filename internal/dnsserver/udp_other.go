//go:build !linux || (!amd64 && !arm64)

package dnsserver

import (
	"net/netip"

	"dnslb/internal/sock"
)

// serveUDP's I/O where udp_linux.go does not build: one datagram a call,
// through the net package under sock.Listener. The receive slot is a byte
// longer than the longest query accepted, so a datagram that fills it is
// known to be oversized without MSG_TRUNC, which syscall lacks on some
// platforms.
type udpBatch struct {
	conn  *sock.Listener
	n     int
	peer  netip.AddrPort
	buf   [maxTCPQuery + 1]byte
	resp  [1][respBufSize]byte
	reply []byte
}

func newUDPBatch(conn *sock.Listener) *udpBatch { return &udpBatch{conn: conn} }

func (b *udpBatch) recv() (n int, err error) {
	b.n, b.peer, err = b.conn.ReadFromUDPAddrPort(b.buf[:])
	return 1, err
}

func (b *udpBatch) query(int) (wire []byte, from netip.Addr, oversized bool) {
	return b.buf[:b.n], b.peer.Addr(), b.n > maxTCPQuery
}

func (b *udpBatch) stage(_, _ int, resp []byte) { b.reply = resp }

func (b *udpBatch) send(int, int) (int, error) {
	if _, err := b.conn.WriteToUDPAddrPort(b.reply, b.peer); err != nil {
		return 0, err
	}
	return 1, nil
}

func (b *udpBatch) dest(int) netip.AddrPort { return b.peer }
