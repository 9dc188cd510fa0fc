// Package sock is the DNS server's socket layer: UDP and TCP listeners
// (Listen, Accept), dialed TCP connections (Dial), and the rule every
// listen and dial address follows (ParseAddr).
//
// On linux/amd64 and linux/arm64 (sock_linux.go) it is built on syscall
// and os.File, so a binary that takes its sockets from here links no net
// package and no C library: it builds static. The descriptors are
// non-blocking and os.NewFile puts them on the runtime poller, so reads,
// writes, deadlines, SyscallConn and Close behave as on net's conns.
// Everywhere else (sock_other.go) the same API wraps net.
package sock

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// ParseAddr parses a listen or dial address: "host:port", where host is
// an IP literal (an IPv6 one in brackets, with no zone) or empty, and port
// a decimal number. Nothing is looked up, so a host name is an error. An
// empty host comes back as the zero Addr: to Listen, any address, as the
// unspecified ones are; to Dial, the local host.
func ParseAddr(s string) (netip.AddrPort, error) {
	if port, ok := strings.CutPrefix(s, ":"); ok {
		p, err := strconv.ParseUint(port, 10, 16)
		if err != nil {
			return netip.AddrPort{}, fmt.Errorf("address %q: bad port %q", s, port)
		}
		return netip.AddrPortFrom(netip.Addr{}, uint16(p)), nil
	}
	ap, err := netip.ParseAddrPort(s)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("address %q: want an IP literal and a port: %w", s, err)
	}
	if ap.Addr().Zone() != "" {
		return netip.AddrPort{}, fmt.Errorf("address %q: zoned addresses are not supported", s)
	}
	return ap, nil
}
