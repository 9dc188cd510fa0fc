//go:build linux && (amd64 || arm64)

package dnsserver

import (
	"bytes"
	"log/slog"
	"net"
	"net/netip"
	"strings"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// TestUDPSendFailureSkipsOneMessage: sendmmsg stops at a message it
// cannot send — here one to the limited broadcast address, which a
// socket without SO_BROADCAST may not send to (EACCES, before anything
// leaves the host). That message is logged and skipped, and the one
// after it still goes out.
func TestUDPSendFailureSkipsOneMessage(t *testing.T) {
	loopback := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	conn, err := net.ListenUDP("udp", loopback)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	b := newUDPBatch(conn)
	var serr error // the net package sets SO_BROADCAST on every datagram socket
	if err := b.rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_BROADCAST, 0)
	}); err != nil || serr != nil {
		t.Fatal(err, serr)
	}
	var peers [2]*net.UDPConn
	for i := range peers {
		if peers[i], err = net.ListenUDP("udp", loopback); err != nil {
			t.Fatal(err)
		}
		defer peers[i].Close()
	}
	dests := []netip.AddrPort{
		peers[0].LocalAddr().(*net.UDPAddr).AddrPort(),
		netip.MustParseAddrPort("255.255.255.255:53"),
		peers[1].LocalAddr().(*net.UDPAddr).AddrPort(),
	}
	for k, to := range dests {
		// Where recvmmsg would have left a query's source: a sockaddr_in.
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&b.from[k]))
		sa.Family = syscall.AF_INET
		port := (*[2]byte)(unsafe.Pointer(&sa.Port))
		port[0], port[1] = byte(to.Port()>>8), byte(to.Port())
		sa.Addr = to.Addr().As4()
		b.in[k].hdr.Namelen = syscall.SizeofSockaddrInet4
		b.stage(k, k, append(b.resp[k][:0], 'a'+byte(k)))
	}

	var log bytes.Buffer
	srv := &Server{logger: slog.New(slog.NewTextHandler(&log, nil))}
	srv.sendUDP(b, len(dests), 0)

	for i, p := range peers {
		_ = p.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 16)
		n, err := p.Read(buf)
		if want := "ac"[i : i+1]; err != nil || string(buf[:n]) != want {
			t.Errorf("peer %d read %q, %v; want %q", i, buf[:n], err, want)
		}
	}
	if got := strings.Count(log.String(), "udp write failed"); got != 1 || !strings.Contains(log.String(), "255.255.255.255:53") {
		t.Errorf("%d failures logged, want one, for 255.255.255.255:53:\n%s", got, log.String())
	}
}
