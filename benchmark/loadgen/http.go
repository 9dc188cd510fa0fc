package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"strconv"
)

// maxHTTPHeader bounds how far parseHTTP looks for the end of a
// response header before calling the stream broken.
const maxHTTPHeader = 8192

var (
	headerEnd     = []byte("\r\n\r\n")
	contentLength = []byte("\r\nContent-Length: ")
)

// parseHTTP reads one HTTP/1.1 response with a Content-Length from the
// front of b. total is the bytes it occupies, 0 while it is still
// incomplete. Both of the server's DoH endpoints answer with a
// Content-Length; anything else (chunked, no length) is an error.
func parseHTTP(b []byte) (body []byte, total, status int, err error) {
	h := bytes.Index(b, headerEnd)
	if h < 0 {
		if len(b) > maxHTTPHeader {
			return nil, 0, 0, errors.New("loadgen: HTTP response header does not end")
		}
		return nil, 0, 0, nil
	}
	head := b[:h+2]
	if len(head) < 12 || string(head[:7]) != "HTTP/1." {
		return nil, 0, 0, fmt.Errorf("loadgen: not an HTTP response: %q", head[:min(len(head), 32)])
	}
	status, err = strconv.Atoi(string(head[9:12]))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("loadgen: bad HTTP status line: %q", head[:12])
	}
	cl := bytes.Index(head, contentLength)
	if cl < 0 {
		return nil, 0, 0, errors.New("loadgen: HTTP response without Content-Length")
	}
	val := head[cl+len(contentLength):]
	val = val[:bytes.IndexByte(val, '\r')]
	n, err := strconv.Atoi(string(val))
	if err != nil || n < 0 {
		return nil, 0, 0, fmt.Errorf("loadgen: bad Content-Length %q", val)
	}
	total = h + 4 + n
	if len(b) < total {
		return nil, 0, status, nil
	}
	return b[h+4 : total], total, status, nil
}

// jsonAnswer is the part of the server's dns-json rendering the
// checker reads.
type jsonAnswer struct {
	Status int
	Answer []struct {
		Type int    `json:"type"`
		TTL  uint32 `json:"TTL"`
		Data string `json:"data"`
	}
	Subnet string `json:"edns_client_subnet"`
}

// checkJSON verifies a /resolve answer: NOERROR, one A record with a
// non-zero TTL naming a backend, and the subnet echoed with scope 24.
func checkJSON(body []byte, subnet [3]byte, servers Servers) Fail {
	var a jsonAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return FailHTTP
	}
	if a.Status != 0 {
		return FailHeader
	}
	if len(a.Answer) != 1 || a.Answer[0].Type != typeA {
		return FailAnswer
	}
	addr, err := netip.ParseAddr(a.Answer[0].Data)
	if err != nil || !addr.Is4() || !servers[addr.As4()] {
		return FailAddr
	}
	if a.Answer[0].TTL == 0 {
		return FailTTL
	}
	if a.Subnet != fmt.Sprintf("%d.%d.%d.0/%d/%d", subnet[0], subnet[1], subnet[2], ecsBits, ecsBits) {
		return FailECS
	}
	return OK
}
