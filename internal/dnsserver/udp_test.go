package dnsserver

import (
	"bytes"
	"net"
	"testing"
	"time"

	"dnslb/internal/dnswire"
	"dnslb/internal/metrics"
)

// udpExchange sends wire over conn and decodes the one response.
func udpExchange(t *testing.T, conn net.Conn, wire []byte) *dnswire.Message {
	t.Helper()
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, dnswire.MaxUDPPayload)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestUDPOversizedQueryFormErr: a query over maxTCPQuery — here 5 000
// bytes, the surplus an EDNS(0) padding option (RFC 7830) or bytes after
// the message — is answered FORMERR with its ID and counted, not decoded
// from what a receive slot holds of it; the query after it is answered
// as usual.
func TestUDPOversizedQueryFormErr(t *testing.T) {
	srv, _ := testServer(t, "RR", nil)
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const size = 5000
	pad := size - len(testQueryWire(t)) - 11 - 4 // the OPT record's fixed part, the option's header
	padded, err := (&dnswire.Message{
		Header:     dnswire.Header{ID: 0xF001, RecursionDesired: true},
		Questions:  []dnswire.Question{{Name: "www.site.example", Type: dnswire.TypeA, Class: dnswire.ClassIN}},
		Additional: []dnswire.ResourceRecord{{Name: ".", Type: dnswire.TypeOPT, Class: 1232, Data: dnswire.OPT{Options: []dnswire.EDNSOption{{Code: 12, Data: make([]byte, pad)}}}}},
	}).Pack()
	if err != nil {
		t.Fatal(err)
	}
	trailing := append(testQueryWire(t), make([]byte, size-len(testQueryWire(t)))...)
	trailing[0], trailing[1] = 0xF0, 0x02
	for _, c := range []struct {
		name string
		wire []byte
	}{{"padding", padded}, {"trailing", trailing}} {
		t.Run(c.name, func(t *testing.T) {
			if len(c.wire) != size {
				t.Fatalf("query of %d bytes, want %d", len(c.wire), size)
			}
			resp := udpExchange(t, conn, c.wire)
			if id := uint16(c.wire[0])<<8 | uint16(c.wire[1]); resp.Header.RCode != dnswire.RCodeFormErr || resp.Header.ID != id {
				t.Errorf("response %+v, want FORMERR with ID %#x", resp.Header, id)
			}
			if resp := udpExchange(t, conn, testQueryWire(t)); resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
				t.Errorf("next query: %+v with %d answers, want NOERROR with one", resp.Header, len(resp.Answers))
			}
		})
	}
	if got := srv.Stats().FormErr; got != 2 {
		t.Errorf("FormErr = %d, want 2", got)
	}
}

// TestUDPBurstAnsweredOnce: queries that queue up faster than one read
// takes them — 200 from one socket, all sent before any answer is read,
// under the default socket buffer — are each answered exactly once,
// counted once and timed once.
func TestUDPBurstAnsweredOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, _ := testServerCfg(t, "RR", func(cfg *Config) { cfg.Metrics = reg })
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const burst = 200
	query := testQueryWire(t)
	for id := 0; id < burst; id++ {
		query[0], query[1] = byte(id>>8), byte(id)
		if _, err := conn.Write(query); err != nil {
			t.Fatal(err)
		}
	}
	answered := make([]int, burst)
	buf := make([]byte, dnswire.MaxUDPPayload)
	for i := 0; i < burst; i++ {
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("after %d answers: %v", i, err)
		}
		id := int(buf[0])<<8 | int(buf[1])
		if n < 12 || id >= burst || buf[3]&0xF != 0 {
			t.Fatalf("answer %d: % x", i, buf[:n])
		}
		answered[id]++
	}
	for id, n := range answered {
		if n != 1 {
			t.Errorf("ID %d answered %d times", id, n)
		}
	}
	_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if n, err := conn.Read(buf); err == nil {
		t.Errorf("an answer past the %d: % x", burst, buf[:n])
	}
	if got := srv.Stats().Queries; got != burst {
		t.Errorf("Stats().Queries = %d, want %d", got, burst)
	}
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if got := seriesValue(t, text.String(), "dnslb_dns_query_duration_seconds_count"); got != burst {
		t.Errorf("query duration count = %v, want %d", got, burst)
	}
}
