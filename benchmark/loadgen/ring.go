package loadgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
)

// RingSize is the number of pre-generated queries. It equals the DNS
// ID space on purpose: entry i is sent with ID i, so a response finds
// its query — and the answer expected for it — by its ID alone.
const RingSize = 1 << 16

// Framing is how a query's bytes are laid out for one transport.
type Framing uint8

const (
	FrameUDP  Framing = iota // the bare message
	FrameTCP                 // RFC 7766: two-byte length, then the message
	FrameHTTP                // a complete HTTP/1.1 request
)

// StreamConfig describes the query stream generated from a seed.
type StreamConfig struct {
	Seed    uint64
	Zone    string  // name the server is authoritative for
	Sibling string  // a name outside the zone, answered NXDOMAIN
	Domains int     // connected domains the server classifies into
	Subnets int     // client /24 subnets generated per domain
	Theta   float64 // Zipf exponent of the domain popularity
	Mix     Mix
	// RateQPS is the mean of the seeded arrival schedule used by the
	// open-loop phase (exponential gaps: the superposition of many
	// independent resolvers).
	RateQPS float64
	Framing Framing
	// Host is the Host header of FrameHTTP requests.
	Host string
}

// Ring is the pre-generated, pre-framed query stream.
type Ring struct {
	data   []byte     // every entry's bytes as sent, concatenated
	off    []uint32   // entry i is data[off[i]:off[i+1]]
	wire   []uint16   // where the DNS message starts inside entry i
	kind   []Kind     // expected answer shape
	subnet [][3]byte  // ECS /24 carried by entry i (KindAECS, KindJSON)
	gap    []uint32   // ns from entry i-1's due time to entry i's
	Hash   [32]byte   // SHA-256 over all of the above
	Domain [][]uint32 // Domain[d] = indices of the subnets generated for server domain d (for tests)
	Subnet [][3]byte  // the generated population
	Weight []float64  // Zipf weight of each server domain, summing to one
}

// Entry returns entry i's bytes as sent on the wire.
func (r *Ring) Entry(i int) []byte { return r.data[r.off[i]:r.off[i+1]] }

// Query returns the DNS message inside entry i (empty for KindJSON,
// whose request has none).
func (r *Ring) Query(i int) []byte { return r.data[r.off[i]+uint32(r.wire[i]) : r.off[i+1]] }

// Kind returns entry i's query kind.
func (r *Ring) Kind(i int) Kind { return r.kind[i] }

// ECS returns the /24 entry i carries.
func (r *Ring) ECS(i int) [3]byte { return r.subnet[i] }

// DomainOf reproduces the server's default classification of a /24
// into one of n connected domains (FNV-1a over the three octets with
// an avalanche finalizer). The generator needs it to give each server
// domain its Zipf share of the traffic; benchmark/layers has a test
// that pins it to the server's own mapper.
func DomainOf(subnet [3]byte, n int) int {
	h := uint64(14695981039346656037)
	for _, c := range subnet {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(n))
}

// ZipfWeights returns k weights proportional to 1/rank^theta, summing
// to one.
func ZipfWeights(k int, theta float64) []float64 {
	w := make([]float64, k)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), theta)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// pick draws an index from cumulative weights cum (last element = total).
func pick(rng *rand.Rand, cum []float64) int {
	x := rng.Float64() * cum[len(cum)-1]
	for i, c := range cum {
		if x < c {
			return i
		}
	}
	return len(cum) - 1
}

func cumulative(w []float64) []float64 {
	cum := make([]float64, len(w))
	sum := 0.0
	for i, v := range w {
		sum += v
		cum[i] = sum
	}
	return cum
}

// NewRing generates the stream. The same config gives the same ring,
// byte for byte.
func NewRing(cfg StreamConfig) (*Ring, error) {
	if cfg.Domains <= 0 || cfg.Subnets <= 0 || cfg.RateQPS <= 0 {
		return nil, fmt.Errorf("loadgen: stream needs domains, subnets and a rate, got %d, %d, %g",
			cfg.Domains, cfg.Subnets, cfg.RateQPS)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x646e736c62)) // "dnslb"
	r := &Ring{
		off:    make([]uint32, RingSize+1),
		wire:   make([]uint16, RingSize),
		kind:   make([]Kind, RingSize),
		subnet: make([][3]byte, RingSize),
		gap:    make([]uint32, RingSize),
		Domain: make([][]uint32, cfg.Domains),
		Weight: ZipfWeights(cfg.Domains, cfg.Theta),
	}
	// The resolver population: draw /24s until every server domain has
	// its share of them.
	seen := make(map[[3]byte]bool)
	for full := 0; full < cfg.Domains; {
		s := [3]byte{byte(11 + rng.IntN(180)), byte(rng.IntN(256)), byte(rng.IntN(256))}
		d := DomainOf(s, cfg.Domains)
		if seen[s] || len(r.Domain[d]) == cfg.Subnets {
			continue
		}
		seen[s] = true
		r.Domain[d] = append(r.Domain[d], uint32(len(r.Subnet)))
		r.Subnet = append(r.Subnet, s)
		if len(r.Domain[d]) == cfg.Subnets {
			full++
		}
	}
	domCum := cumulative(r.Weight)
	mixCum := cumulative(cfg.Mix[:])
	if mixCum[len(mixCum)-1] <= 0 {
		return nil, fmt.Errorf("loadgen: stream mix is empty")
	}
	meanGap := 1e9 / cfg.RateQPS
	for i := 0; i < RingSize; i++ {
		d := pick(rng, domCum)
		s := r.Subnet[r.Domain[d][rng.IntN(cfg.Subnets)]]
		k := Kind(pick(rng, mixCum))
		r.kind[i] = k
		r.subnet[i] = s
		r.gap[i] = uint32(math.Min(rng.ExpFloat64()*meanGap, math.MaxUint32))
		r.off[i] = uint32(len(r.data))
		r.data = appendEntry(r.data, cfg, uint16(i), k, s)
		r.wire[i] = uint16(wireStart(r.data[r.off[i]:], cfg.Framing, k))
	}
	r.off[RingSize] = uint32(len(r.data))

	h := sha256.New()
	h.Write(r.data)
	var b [4]byte
	for i := 0; i < RingSize; i++ {
		binary.BigEndian.PutUint32(b[:], r.off[i])
		h.Write(b[:])
		binary.BigEndian.PutUint32(b[:], r.gap[i])
		h.Write(b[:])
		h.Write([]byte{byte(r.kind[i]), r.subnet[i][0], r.subnet[i][1], r.subnet[i][2]})
	}
	h.Sum(r.Hash[:0])
	return r, nil
}

// appendEntry appends entry i as it will be sent.
func appendEntry(dst []byte, cfg StreamConfig, id uint16, k Kind, s [3]byte) []byte {
	if k == KindJSON {
		return fmt.Appendf(dst, "GET /resolve?name=%s&type=A&edns_client_subnet=%d.%d.%d.0/%d HTTP/1.1\r\nHost: %s\r\n\r\n",
			cfg.Zone, s[0], s[1], s[2], ecsBits, cfg.Host)
	}
	name := cfg.Zone
	if k == KindNX {
		name = cfg.Sibling
	}
	var ecs *[3]byte
	if k == KindAECS {
		ecs = &s
	}
	switch cfg.Framing {
	case FrameTCP:
		at := len(dst)
		dst = append(dst, 0, 0)
		dst = AppendQuery(dst, id, name, k.qtype(), ecs)
		binary.BigEndian.PutUint16(dst[at:], uint16(len(dst)-at-2))
		return dst
	case FrameHTTP:
		q := AppendQuery(nil, id, name, k.qtype(), ecs)
		dst = fmt.Appendf(dst, "POST /dns-query HTTP/1.1\r\nHost: %s\r\nContent-Type: application/dns-message\r\nContent-Length: %d\r\n\r\n",
			cfg.Host, len(q))
		return append(dst, q...)
	default:
		return AppendQuery(dst, id, name, k.qtype(), ecs)
	}
}

// wireStart returns where the DNS message begins inside a framed entry.
func wireStart(entry []byte, f Framing, k Kind) int {
	switch {
	case k == KindJSON:
		return len(entry)
	case f == FrameTCP:
		return 2
	case f == FrameHTTP:
		return bytes.Index(entry, headerEnd) + len(headerEnd)
	}
	return 0
}
