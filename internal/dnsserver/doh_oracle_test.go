package dnsserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/netip"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"dnslb/internal/dnswire"
)

// The DoH endpoints parse, synthesise and render by append. What they
// replaced stays here as the oracle the append code must equal byte for
// byte: net/url for the parameters, dnswire.Message.Pack for the /resolve
// query, and encoding/json on a struct for the /resolve body.

// dohJSONResponse is the /resolve response body, in the de-facto dns-json
// field names.
type dohJSONResponse struct {
	Status   uint16          `json:"Status"`
	TC       bool            `json:"TC"`
	Question []dohJSONQ      `json:"Question"`
	Answer   []dohJSONAnswer `json:"Answer,omitempty"`
	Subnet   string          `json:"edns_client_subnet,omitempty"`
}

type dohJSONQ struct {
	Name string `json:"name"`
	Type uint16 `json:"type"`
}

type dohJSONAnswer struct {
	Name string `json:"name"`
	Type uint16 `json:"type"`
	TTL  uint32 `json:"TTL"`
	Data string `json:"data"`
}

// oracleJSON is the body as it was rendered: a struct of fresh strings
// through json.Encoder.
func oracleJSON(t testing.TB, s *Server, q *dnswire.Query, r *reply) []byte {
	out := dohJSONResponse{Status: uint16(r.hdr.RCode)}
	if r.shape >= shapeQuestion {
		out.Question = []dohJSONQ{{Name: string(q.Name), Type: uint16(q.Type)}}
	}
	switch r.shape {
	case shapeA:
		out.Answer = []dohJSONAnswer{{Name: s.zone, Type: uint16(dnswire.TypeA), TTL: r.ttl, Data: r.addr.String()}}
		if q.HasECS {
			out.Subnet = q.ECS.Prefix.String() + "/" + strconv.Itoa(int(r.scope))
		}
	case shapeTXT:
		out.Answer = []dohJSONAnswer{{Name: s.zone, Type: uint16(dnswire.TypeTXT),
			Data: "policy=" + s.policy.Name() + " decisions=" + strconv.FormatUint(s.policy.Decisions(), 10)}}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracleResolveQuery is the /resolve request as it was read: url.Values,
// string parsers, a dnswire.Message and Pack. It returns the wire query,
// or the message of the 400.
func oracleResolveQuery(params url.Values) (wire []byte, msg string) {
	name := params.Get("name")
	if name == "" {
		return nil, "missing name parameter"
	}
	if !strings.HasSuffix(name, ".") {
		name += "."
	}
	var qtype dnswire.Type
	switch s := params.Get("type"); strings.ToUpper(s) {
	case "", "A":
		qtype = dnswire.TypeA
	case "AAAA":
		qtype = dnswire.TypeAAAA
	case "TXT":
		qtype = dnswire.TypeTXT
	case "ANY", "*":
		qtype = dnswire.TypeANY
	default:
		n, err := strconv.ParseUint(s, 10, 16)
		if err != nil {
			return nil, "bad type parameter"
		}
		qtype = dnswire.Type(n)
	}
	q := &dnswire.Message{
		Header:    dnswire.Header{OpCode: dnswire.OpQuery},
		Questions: []dnswire.Question{{Name: strings.ToLower(name), Type: qtype, Class: dnswire.ClassIN}},
	}
	if sn := params.Get("edns_client_subnet"); sn != "" {
		var p netip.Prefix
		var err error
		if strings.Contains(sn, "/") {
			if p, err = netip.ParsePrefix(sn); err == nil {
				p = p.Masked()
			}
		} else {
			var a netip.Addr
			if a, err = netip.ParseAddr(sn); err == nil {
				p = netip.PrefixFrom(a, a.BitLen())
			}
		}
		if err != nil || q.SetClientSubnet(dnswire.ClientSubnet{Prefix: p}, dnswire.MaxUDPPayload) != nil {
			return nil, "bad edns_client_subnet parameter"
		}
	}
	wire, err := q.Pack()
	if err != nil {
		return nil, "bad query"
	}
	return wire, ""
}

// resolveCases are /resolve query strings for the table test and the
// fuzz seeds: each shape of question, and what each check refuses.
var resolveCases = []struct {
	query string
	msg   string // of the 400, or empty for a 200
}{
	{"name=www.site.example", ""},
	{"name=WWW.Site.Example.&type=txt", ""},
	{"name=www.site.example&type=A&edns_client_subnet=10.4.7.0/24", ""},
	{"name=www.site.example&type=1&edns_client_subnet=10.4.7.9", ""},
	{"name=www.site.example&edns_client_subnet=2001:db8:4:5600::/56", ""},
	{"name=www.site.example&edns_client_subnet=::ffff:1.2.3.0/120", ""}, // PR 12's panic
	{"name=www%2Esite%2eexample&type=%41&edns%5Fclient%5Fsubnet=10.4.7.0%2F24", ""},
	{"name=a+b.example&type=65535", ""},
	{"name=CAF%C3%89.%E2%84%AA.example&type=any", ""}, // É and the Kelvin sign: Pack lower-cases by Unicode
	{"name=%ff%c0.example&type=*", ""},
	{"name=.", ""},
	{"name=x&name=www.site.example&type=TXT&type=A", ""}, // the first of each
	{"x=1&&=&name=a.example", ""},
	{"", "missing name parameter"},
	{"name=&name=www.site.example", "missing name parameter"},
	{"type=A", "missing name parameter"},
	{"name=www.site.example&type=BOGUS", "bad type parameter"},
	{"name=www.site.example&type=65536", "bad type parameter"},
	{"name=www.site.example&type=+1", "bad type parameter"},
	{"name=www.site.example&edns_client_subnet=not-an-addr", "bad edns_client_subnet parameter"},
	{"name=www.site.example&edns_client_subnet=10.4.7.0/33", "bad edns_client_subnet parameter"},
	{"name=www.site.example&edns_client_subnet=fe80::1%25eth0/64", "bad edns_client_subnet parameter"},
	{"name=" + strings.Repeat("a", 64) + ".example", "bad query"},
	{"name=" + strings.Repeat("a", 63) + ".example", ""},
	{"name=" + strings.Repeat("a.", 127) + "a", "bad query"},
	{"name=" + strings.Repeat("a.", 126) + "a", ""},
	{"name=a..example", "bad query"},
	{"name=.example", "bad query"},
	{"name=example..", "bad query"},
	{"name=www.site.example&type=%zz", "bad query string"},
	{"name=www.site.example;type=TXT", "bad query string"},
	{"name=www.site.example&x=%4", "bad query string"},
	{"%=1&name=www.site.example", "bad query string"},
}

// TestResolveQueryMatchesPack holds the appended /resolve query to the
// Message it replaced, parameter by parameter, and the endpoint to the
// status and message each request had — but for a malformed query string,
// which was answered as if the bad pair were absent and is now refused.
func TestResolveQueryMatchesPack(t *testing.T) {
	srv, _ := testServerNoStart(t, "DRR2-TTL/S_K")
	d := newDoHDirect(srv)
	var refused uint64
	for _, c := range resolveCases {
		p, scratch, ok := scanParams([]byte(c.query), nil)
		got, msg := scratch, "bad query string"
		if ok {
			got, msg = appendResolveQuery(scratch, p[paramName], p[paramType], p[paramSubnet])
		}
		if msg != c.msg {
			t.Errorf("%q: %q, want %q", c.query, msg, c.msg)
			continue
		}
		if params, err := url.ParseQuery(c.query); err == nil {
			want, wantMsg := oracleResolveQuery(params)
			if msg != wantMsg || msg == "" && !bytes.Equal(got[len(scratch):], want) {
				t.Errorf("%q:\nappended %x %q\nPack     %x %q", c.query, got[len(scratch):], msg, want, wantMsg)
			}
		} else if msg != "bad query string" {
			t.Errorf("%q: url.ParseQuery refuses it (%v), the scanner does not", c.query, err)
		}
		r := d.exchange(t, dohGet("/resolve?"+c.query))
		if want := c.msg + "\n"; c.msg != "" && (r.status != http.StatusBadRequest || string(r.body) != want) {
			t.Errorf("%q: %d %q, want 400 %q", c.query, r.status, r.body, want)
		} else if c.msg != "" {
			refused++
		}
		if c.msg == "" && r.status != http.StatusOK {
			t.Errorf("%q: %d %q, want 200", c.query, r.status, r.body)
		}
	}
	if got := srv.dohBadRequest.Load(); got != refused {
		t.Errorf("%d bad requests counted, want %d", got, refused)
	}
}

// FuzzDoHQueryParams holds the parameter scanner to net/url and the query
// built from the parameters to the Message built from url.Values: for any
// query string the scanner errs iff url.ParseQuery errs; otherwise the
// four values it reads are what Get returns, and the /resolve request is
// refused with the message it was, or becomes the same wire query. (An
// address with a zone is the one thing refused that was taken.)
func FuzzDoHQueryParams(f *testing.F) {
	for _, c := range resolveCases {
		f.Add(c.query)
	}
	f.Add("dns=AAABAAABAAAAAAAAA3d3dwRzaXRlB2V4YW1wbGUAAAEAAQ&dns=x")
	f.Add("dns=AAAB%3D%3D&a=b=c&d")
	f.Fuzz(func(t *testing.T, query string) {
		vals, scratch, ok := scanParams([]byte(query), nil)
		params, err := url.ParseQuery(query)
		if ok != (err == nil) {
			t.Fatalf("%q: scanner ok = %v, url.ParseQuery: %v", query, ok, err)
		}
		if !ok {
			return
		}
		for i, key := range paramKeys {
			if got, want := string(vals[i]), params.Get(key); got != want {
				t.Fatalf("%q: %s = %q, url.Values.Get: %q", query, key, got, want)
			}
		}
		got, msg := appendResolveQuery(scratch, vals[paramName], vals[paramType], vals[paramSubnet])
		want, wantMsg := oracleResolveQuery(params)
		if strings.Contains(params.Get("edns_client_subnet"), "%") && msg == "bad edns_client_subnet parameter" {
			return
		}
		if msg != wantMsg || msg == "" && !bytes.Equal(got[len(scratch):], want) {
			t.Fatalf("%q:\nappended %x %q\nPack     %x %q", query, got[len(scratch):], msg, want, wantMsg)
		}
	})
}

// FuzzResolveJSON holds the JSON renderer to encoding/json: for any reply
// shape and any decoded question — a name is whatever bytes the wire held
// — the appended body is what json.Encoder.Encode writes for the struct,
// newline included.
func FuzzResolveJSON(f *testing.F) {
	srv, _ := testServerNoStart(f, "DRR2-TTL/S_K")
	zone := srv.zone
	v4, v6 := []byte{10, 4, 7, 0}, netip.MustParseAddr("2001:db8:4:5600::").AsSlice()
	mapped := netip.MustParseAddr("::ffff:1.2.3.0").AsSlice()
	for i, name := range []string{
		"www.site.example.", "a\"b<.example.", "a b.example.", "café.example.", `a\.b.example.`,
		"\xff\xc0\xaf.example.", "a\u2028b\u2029.example.", "\x00\x07\b\t\n\f\r\x1f\x7f&>.", ".",
	} {
		f.Add([]byte(name), zone, uint8(i), uint8(i%6), uint16(1+i), uint32(240+i), v4, uint8(24), uint8(24))
		f.Add([]byte(name), name, uint8(i+2), uint8(0), uint16(16), uint32(0), v6, uint8(56), uint8(0))
	}
	f.Add([]byte(zone), zone, uint8(2), uint8(0), uint16(1), uint32(1), mapped, uint8(120), uint8(120))
	f.Add([]byte(zone), zone, uint8(2), uint8(0), uint16(255), uint32(1<<32-1), []byte{}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, name []byte, zone string, kind, rcode uint8, qtype uint16, ttl uint32, subnet []byte, bits, scope uint8) {
		q := &dnswire.Query{Name: name, Type: dnswire.Type(qtype)}
		if a, ok := netip.AddrFromSlice(subnet); ok {
			// What ParseClientSubnet yields: family by width, host bits zero.
			if p, err := a.Prefix(int(bits) % (a.BitLen() + 1)); err == nil {
				q.HasECS, q.ECS.Prefix = true, p
			}
		}
		r := &reply{
			shape: shapeHeader + shape(kind)%(shapeSOA-shapeHeader+1),
			hdr:   dnswire.Header{RCode: dnswire.RCode(rcode & 0xF)},
			addr:  netip.AddrFrom4([4]byte{10, 0, byte(ttl >> 8), byte(ttl)}),
			ttl:   ttl,
			scope: scope,
		}
		srv.zone = zone
		got, want := srv.appendJSON(nil, q, r), oracleJSON(t, srv, q, r)
		if !bytes.Equal(got, want) {
			t.Fatalf("shape %d, name %q, zone %q:\nappended      %s\nencoding/json %s", r.shape, name, zone, got, want)
		}
	})
}
