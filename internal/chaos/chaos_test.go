package chaos

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// echoUDP starts a UDP echo server and returns its address.
func echoUDP(t *testing.T) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, 65535)
		for {
			n, addr, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			conn.WriteToUDPAddrPort(buf[:n], addr)
		}
	}()
	return conn.LocalAddr().String()
}

// echoTCP starts a TCP echo server and returns its address.
func echoTCP(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String()
}

func udpExchange(t *testing.T, conn *net.UDPConn, payload []byte, timeout time.Duration) ([]byte, error) {
	t.Helper()
	if _, err := conn.Write(payload); err != nil {
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	buf := make([]byte, 65535)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

func dialUDP(t *testing.T, addr string) *net.UDPConn {
	t.Helper()
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestUDPProxyTransparent(t *testing.T) {
	echo := echoUDP(t)
	p, err := NewUDPProxy("127.0.0.1:0", echo, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn := dialUDP(t, p.Addr())
	msg := []byte("hello through the proxy")
	got, err := udpExchange(t, conn, msg, 2*time.Second)
	if err != nil {
		t.Fatalf("echo through transparent proxy: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echoed %q, want %q", got, msg)
	}
	if s := p.Stats(); s.Forwarded < 2 {
		t.Fatalf("expected >=2 forwarded datagrams, got %+v", s)
	}
}

func TestUDPProxyDropRate(t *testing.T) {
	echo := echoUDP(t)
	p, err := NewUDPProxy("127.0.0.1:0", echo, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Drop everything client->upstream; responses unaffected (none arrive).
	if err := p.SetFault(Fault{Drop: 1.0}); err != nil {
		t.Fatal(err)
	}
	conn := dialUDP(t, p.Addr())
	for i := 0; i < 5; i++ {
		conn.Write([]byte("x"))
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if p.Stats().Dropped >= 5 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s := p.Stats(); s.Dropped < 5 || s.Forwarded != 0 {
		t.Fatalf("drop=1.0 should drop all 5, got %+v", s)
	}
}

func TestUDPProxyDelayAndDuplication(t *testing.T) {
	echo := echoUDP(t)
	p, err := NewUDPProxy("127.0.0.1:0", echo, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.SetFault(Fault{Delay: 30 * time.Millisecond, Dup: 1.0}); err != nil {
		t.Fatal(err)
	}

	conn := dialUDP(t, p.Addr())
	start := time.Now()
	if _, err := udpExchange(t, conn, []byte("slow"), 2*time.Second); err != nil {
		t.Fatalf("delayed echo: %v", err)
	}
	// Two proxy traversals, each >=30ms.
	if el := time.Since(start); el < 60*time.Millisecond {
		t.Fatalf("round trip %v, want >= 60ms of injected delay", el)
	}
	// dup=1.0 duplicates in both directions; at least one duplicate seen.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && p.Stats().Dupped == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if s := p.Stats(); s.Dupped == 0 {
		t.Fatalf("dup=1.0 produced no duplicates: %+v", s)
	}
}

func TestTCPProxyCutAndHeal(t *testing.T) {
	echo := echoTCP(t)
	p, err := NewTCPProxy("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := c.Read(buf); err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("echo through proxy: n=%d err=%v", n, err)
	}

	p.Cut()
	// The established connection dies...
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read on cut connection succeeded")
	}
	// ...and new connections are refused or immediately closed.
	if c2, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second); err == nil {
		c2.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		if _, err := c2.Read(buf); err == nil {
			t.Fatal("cut proxy served a new connection")
		}
		c2.Close()
	}

	p.Heal()
	c3, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	defer c3.Close()
	if _, err := c3.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	c3.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := c3.Read(buf); err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("echo after heal: n=%d err=%v", n, err)
	}
	if p.Stats().Refused == 0 {
		t.Fatal("cut produced no refused count")
	}
}

// TestTCPProxySetTarget: a proxy listens before its target exists. With
// no target every connection is refused; once set, it forwards.
func TestTCPProxySetTarget(t *testing.T) {
	p, err := NewTCPProxy("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	buf := make([]byte, 16)
	c, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("a proxy without a target served a connection")
	}
	c.Close()

	p.SetTarget(echoTCP(t))
	c, err = net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := c.Read(buf); err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("echo after SetTarget: n=%d err=%v", n, err)
	}
}

func TestFaultValidate(t *testing.T) {
	if err := (Fault{Drop: 0.5, Delay: time.Millisecond}).validate(); err != nil {
		t.Fatalf("valid fault rejected: %v", err)
	}
	for _, f := range []Fault{
		{Drop: -0.1}, {Dup: 1.01}, {Delay: -time.Second}, {Jitter: -time.Second},
	} {
		if err := f.validate(); err == nil {
			t.Errorf("invalid fault %+v accepted", f)
		}
	}
}
