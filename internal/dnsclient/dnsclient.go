// Package dnsclient implements a stub resolver and a caching name
// server over the dnswire protocol. The caching name server is the
// real-network counterpart of the simulation's NS model: it honours
// the TTL decided by the site's DNS, or raises it to its own minimum
// when configured non-cooperatively.
package dnsclient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"sync"
	"time"

	"dnslb/internal/dnswire"
)

// Resolver is a stub resolver bound to a single upstream DNS server.
// By default it queries over UDP and falls back to TCP on truncation;
// Transport selects TCP-only or DNS-over-HTTPS wire exchanges instead.
type Resolver struct {
	// Server is the upstream address, e.g. "127.0.0.1:53". For the
	// "doh" transport it may instead be a full URL (anything containing
	// "://"); a bare host:port becomes http://host:port/dns-query.
	Server string
	// Transport selects the exchange path: "" or "udp" is UDP with TCP
	// fallback on truncation, "tcp" is TCP only, "doh" is RFC 8484
	// HTTP POST of the wire query.
	Transport string
	// Timeout bounds each network exchange (default 3 s).
	Timeout time.Duration
	// Dialer optionally overrides dialing (tests).
	Dialer net.Dialer
	// ClientSubnet, when valid, is attached to every query as an
	// RFC 7871 EDNS Client Subnet option so the authority can classify
	// the originating network even behind a shared resolver.
	ClientSubnet netip.Prefix

	mu  sync.Mutex
	rng *rand.Rand
}

// ErrNoAnswer reports a NOERROR response without usable records.
var ErrNoAnswer = errors.New("dnsclient: no answer records")

// RCodeError is returned when the upstream answers with a non-zero
// response code.
type RCodeError struct {
	RCode dnswire.RCode
}

// Error implements error.
func (e *RCodeError) Error() string {
	return fmt.Sprintf("dnsclient: upstream answered %v", e.RCode)
}

func (r *Resolver) timeout() time.Duration {
	if r.Timeout <= 0 {
		return 3 * time.Second
	}
	return r.Timeout
}

func (r *Resolver) nextID() uint16 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rng == nil {
		r.rng = rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64()))
	}
	return uint16(r.rng.UintN(1 << 16))
}

// Exchange sends one query and returns the validated response message.
func (r *Resolver) Exchange(ctx context.Context, name string, qtype dnswire.Type) (*dnswire.Message, error) {
	query := &dnswire.Message{
		Header: dnswire.Header{ID: r.nextID(), RecursionDesired: true},
		Questions: []dnswire.Question{{
			Name:  dnswire.CanonicalName(name),
			Type:  qtype,
			Class: dnswire.ClassIN,
		}},
	}
	if r.ClientSubnet.IsValid() {
		cs := dnswire.ClientSubnet{Prefix: r.ClientSubnet.Masked()}
		if err := query.SetClientSubnet(cs, dnswire.MaxUDPPayload); err != nil {
			return nil, err
		}
	}
	wire, err := query.Pack()
	if err != nil {
		return nil, err
	}
	var resp *dnswire.Message
	switch r.Transport {
	case "", "udp":
		resp, err = r.exchangeUDP(ctx, wire, query.Header.ID)
		if err == nil && resp.Header.Truncated {
			resp, err = r.exchangeTCP(ctx, wire, query.Header.ID)
		}
	case "tcp":
		resp, err = r.exchangeTCP(ctx, wire, query.Header.ID)
	case "doh":
		resp, err = r.exchangeDoH(ctx, wire, query.Header.ID)
	default:
		return nil, fmt.Errorf("dnsclient: unknown transport %q (want udp, tcp or doh)", r.Transport)
	}
	if err != nil {
		return nil, err
	}
	if resp.Header.RCode != dnswire.RCodeNoError {
		return resp, &RCodeError{RCode: resp.Header.RCode}
	}
	return resp, nil
}

func (r *Resolver) exchangeUDP(ctx context.Context, wire []byte, id uint16) (*dnswire.Message, error) {
	conn, err := r.Dialer.DialContext(ctx, "udp", r.Server)
	if err != nil {
		return nil, fmt.Errorf("dnsclient: dial udp: %w", err)
	}
	defer conn.Close()
	deadline := time.Now().Add(r.timeout())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if _, err := conn.Write(wire); err != nil {
		return nil, fmt.Errorf("dnsclient: udp write: %w", err)
	}
	buf := make([]byte, 65535)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, fmt.Errorf("dnsclient: udp read: %w", err)
		}
		resp, err := dnswire.Unpack(buf[:n])
		if err != nil {
			continue // hostile or corrupt datagram: keep waiting
		}
		if resp.Header.ID != id || !resp.Header.Response {
			continue // not ours
		}
		return resp, nil
	}
}

func (r *Resolver) exchangeTCP(ctx context.Context, wire []byte, id uint16) (*dnswire.Message, error) {
	conn, err := r.Dialer.DialContext(ctx, "tcp", r.Server)
	if err != nil {
		return nil, fmt.Errorf("dnsclient: dial tcp: %w", err)
	}
	defer conn.Close()
	deadline := time.Now().Add(r.timeout())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	out := make([]byte, 2+len(wire))
	out[0], out[1] = byte(len(wire)>>8), byte(len(wire))
	copy(out[2:], wire)
	if _, err := conn.Write(out); err != nil {
		return nil, fmt.Errorf("dnsclient: tcp write: %w", err)
	}
	lenBuf := make([]byte, 2)
	if err := readFull(conn, lenBuf); err != nil {
		return nil, fmt.Errorf("dnsclient: tcp read: %w", err)
	}
	msg := make([]byte, int(lenBuf[0])<<8|int(lenBuf[1]))
	if err := readFull(conn, msg); err != nil {
		return nil, fmt.Errorf("dnsclient: tcp read: %w", err)
	}
	resp, err := dnswire.Unpack(msg)
	if err != nil {
		return nil, err
	}
	if resp.Header.ID != id {
		return nil, errors.New("dnsclient: tcp response ID mismatch")
	}
	return resp, nil
}

// dohURL resolves the Server field for the DoH transport: a value with
// a scheme is used verbatim; a bare host:port gets the RFC 8484
// well-known path on plain HTTP (the in-cluster deployment mode, TLS
// termination being the fronting proxy's job).
func (r *Resolver) dohURL() string {
	if strings.Contains(r.Server, "://") {
		return r.Server
	}
	return "http://" + r.Server + "/dns-query"
}

func (r *Resolver) exchangeDoH(ctx context.Context, wire []byte, id uint16) (*dnswire.Message, error) {
	client := &http.Client{Timeout: r.timeout()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.dohURL(), bytes.NewReader(wire))
	if err != nil {
		return nil, fmt.Errorf("dnsclient: doh request: %w", err)
	}
	req.Header.Set("Content-Type", "application/dns-message")
	req.Header.Set("Accept", "application/dns-message")
	hr, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dnsclient: doh exchange: %w", err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dnsclient: doh upstream returned %s", hr.Status)
	}
	body, err := io.ReadAll(io.LimitReader(hr.Body, 65536))
	if err != nil {
		return nil, fmt.Errorf("dnsclient: doh read: %w", err)
	}
	resp, err := dnswire.Unpack(body)
	if err != nil {
		return nil, err
	}
	if resp.Header.ID != id {
		return nil, errors.New("dnsclient: doh response ID mismatch")
	}
	return resp, nil
}

func readFull(conn net.Conn, buf []byte) error {
	read := 0
	for read < len(buf) {
		n, err := conn.Read(buf[read:])
		read += n
		if err != nil {
			return err
		}
	}
	return nil
}

// AnswerA is one A record from a response: the address and the TTL the
// authority attached to it.
type AnswerA struct {
	Addr netip.Addr
	TTL  time.Duration
}

// LookupA resolves the name to its A records.
func (r *Resolver) LookupA(ctx context.Context, name string) ([]AnswerA, error) {
	resp, err := r.Exchange(ctx, name, dnswire.TypeA)
	if err != nil {
		return nil, err
	}
	var out []AnswerA
	want := dnswire.CanonicalName(name)
	for _, rr := range resp.Answers {
		if rr.Type != dnswire.TypeA || dnswire.CanonicalName(rr.Name) != want {
			continue
		}
		a, ok := rr.Data.(dnswire.A)
		if !ok {
			continue
		}
		out = append(out, AnswerA{Addr: a.Addr, TTL: time.Duration(rr.TTL) * time.Second})
	}
	if len(out) == 0 {
		return nil, ErrNoAnswer
	}
	return out, nil
}
