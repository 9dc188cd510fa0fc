package sock

import (
	"context"
	"errors"
	"io"
	"net/netip"
	"os"
	"syscall"
	"testing"
	"time"
)

func TestParseAddr(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want netip.AddrPort
		ok   bool
	}{
		{"127.0.0.1:53", netip.MustParseAddrPort("127.0.0.1:53"), true},
		{"[::1]:5353", netip.MustParseAddrPort("[::1]:5353"), true},
		{"0.0.0.0:0", netip.MustParseAddrPort("0.0.0.0:0"), true},
		{":8053", netip.AddrPortFrom(netip.Addr{}, 8053), true},
		{":0", netip.AddrPort{}, true},
		{"localhost:53", netip.AddrPort{}, false},
		{"ns1.site.example:53", netip.AddrPort{}, false},
		{"127.0.0.1", netip.AddrPort{}, false},
		{"127.0.0.1:domain", netip.AddrPort{}, false},
		{"127.0.0.1:65536", netip.AddrPort{}, false},
		{"::1:53", netip.AddrPort{}, false},
		{"[fe80::1%eth0]:53", netip.AddrPort{}, false},
		{":", netip.AddrPort{}, false},
		{"", netip.AddrPort{}, false},
	} {
		got, err := ParseAddr(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseAddr(%q) = %v, %v; want %v, ok %v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestStreamRoundTrip: a dialed and an accepted connection know their
// peers, carry bytes both ways, honour a read deadline and see the
// other end's close as EOF; closing the listener ends a blocked Accept.
func TestStreamRoundTrip(t *testing.T) {
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if ln.Addr().Port() == 0 || ln.Addr().Addr() != netip.MustParseAddr("127.0.0.1") {
		t.Fatalf("bound %v", ln.Addr())
	}
	client, err := Dial(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.Peer != ln.Addr() {
		t.Errorf("dialed peer %v, want %v", client.Peer, ln.Addr())
	}
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if !server.Peer.Addr().IsLoopback() || server.Peer.Port() == 0 {
		t.Errorf("accepted peer %v", server.Peer)
	}
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(server, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("read %q, %v", buf, err)
	}
	_ = server.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	if _, err := server.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past the deadline: %v", err)
	}
	_ = server.SetReadDeadline(time.Time{})
	_ = client.Close()
	if _, err := server.Read(buf); err != io.EOF {
		t.Fatalf("read after the peer closed: %v, want EOF", err)
	}

	accepted := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			_ = c.Close()
		}
		accepted <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = ln.Close()
	select {
	case err := <-accepted:
		if err == nil {
			t.Fatal("Accept on a closed listener succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not end a blocked Accept")
	}
}

func TestDialFailures(t *testing.T) {
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if c, err := Dial(ctx, addr); err == nil {
		_ = c.Close()
		t.Error("Dial with a cancelled context succeeded")
	}
	_ = ln.Close()
	if _, err := Dial(context.Background(), addr); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Errorf("Dial to a closed port: %v, want ECONNREFUSED", err)
	}
	if _, err := Dial(context.Background(), "localhost:53"); err == nil {
		t.Error("Dial looked a host name up")
	}
}

// TestWildcardListen: an empty host binds any address, so a loopback
// client reaches it, over UDP and TCP alike.
func TestWildcardListen(t *testing.T) {
	ln, err := Listen("tcp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if !ln.Addr().Addr().IsUnspecified() {
		t.Fatalf("wildcard bound %v", ln.Addr())
	}
	loop := netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), ln.Addr().Port())
	c, err := Dial(context.Background(), loop.String())
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	udp, err := Listen("udp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	if !udp.Addr().Addr().IsUnspecified() || udp.Addr().Port() == 0 {
		t.Fatalf("wildcard UDP bound %v", udp.Addr())
	}
}
