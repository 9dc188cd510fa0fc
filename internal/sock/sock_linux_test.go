//go:build linux && (amd64 || arm64)

package sock

import (
	"context"
	"syscall"
	"testing"
)

// TestNetDefaults: the options the net package would have set. Without
// TCP_NODELAY a pipelined TCP or DoH answer waits behind the one before
// it for the client's delayed ACK.
func TestNetDefaults(t *testing.T) {
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := Dial(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	type opt struct {
		name         string
		level, opt   int
		want         int
		listen, conn bool
	}
	for _, o := range []opt{
		{"SO_REUSEADDR", syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1, true, false},
		{"TCP_NODELAY", syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1, false, true},
		{"SO_KEEPALIVE", syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1, false, true},
		{"TCP_KEEPIDLE", syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15, false, true},
		{"TCP_KEEPINTVL", syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15, false, true},
		{"TCP_KEEPCNT", syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9, false, true},
	} {
		for _, s := range []struct {
			what string
			conn syscall.Conn
			on   bool
		}{{"listener", ln, o.listen}, {"dialed", client, o.conn}, {"accepted", server, o.conn}} {
			if !s.on {
				continue
			}
			rc, err := s.conn.SyscallConn()
			if err != nil {
				t.Fatal(err)
			}
			var v int
			var gerr error
			if err := rc.Control(func(fd uintptr) { v, gerr = syscall.GetsockoptInt(int(fd), o.level, o.opt) }); err != nil || gerr != nil {
				t.Fatal(err, gerr)
			}
			if v != o.want {
				t.Errorf("%s on the %s socket = %d, want %d", o.name, s.what, v, o.want)
			}
		}
	}
}
