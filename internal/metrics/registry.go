package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Labels is an ordered key/value list attached to one series, e.g.
// metrics.Labels{"server", "0", "policy", "RR"}. Keys must be valid
// label names; values are escaped at registration time.
type Labels []string

// render formats the label set as {k="v",...} (empty string for no
// labels), validating keys. Values have \, " and newline escaped per
// the exposition format.
func (l Labels) render() (string, error) {
	if len(l) == 0 {
		return "", nil
	}
	if len(l)%2 != 0 {
		return "", fmt.Errorf("metrics: odd label list %q", []string(l))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(l); i += 2 {
		if !validName(l[i]) || strings.Contains(l[i], ":") {
			return "", fmt.Errorf("metrics: invalid label name %q", l[i])
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l[i])
		b.WriteString(`="`)
		v := l[i+1]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String(), nil
}

// validName reports whether s is a legal metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// series is one labelled instance of a metric family.
type series struct {
	labels string // rendered {k="v",...} or ""
	// exactly one of the following is set
	counter     *Counter
	histogram   *Histogram
	counterFunc func() uint64
	gaugeFunc   func() float64
}

// family groups all series sharing one metric name.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	series []*series
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registration takes a lock; metric updates
// never do (they go straight to the returned handles).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // sorted family names
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register validates and inserts one series, creating its family as
// needed. Registration errors are programming errors (bad name, type
// clash, duplicate series), so it panics — the failure is immediate and
// deterministic at wiring time, never on the serve path.
func (r *Registry) register(name, help, typ string, s *series, labels Labels) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	rendered, err := labels.render()
	if err != nil {
		panic(err.Error())
	}
	s.labels = rendered
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		i := sort.SearchStrings(r.names, name)
		r.names = append(r.names, "")
		copy(r.names[i+1:], r.names[i:])
		r.names[i] = name
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.typ, typ))
	}
	for _, existing := range f.series {
		if existing.labels == rendered {
			panic(fmt.Sprintf("metrics: duplicate series %s%s", name, rendered))
		}
	}
	f.series = append(f.series, s)
	sort.Slice(f.series, func(a, b int) bool { return f.series[a].labels < f.series[b].labels })
}

// NewCounter registers and returns a counter series.
func (r *Registry) NewCounter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", &series{counter: c}, labels)
	return c
}

// NewCounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge for totals the hot path already counts
// elsewhere (sharded server stats, policy decision counters), adding
// zero new work per event.
func (r *Registry) NewCounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.register(name, help, "counter", &series{counterFunc: fn}, labels)
}

// NewGaugeFunc registers a gauge evaluated from fn at exposition time.
func (r *Registry) NewGaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, "gauge", &series{gaugeFunc: fn}, labels)
}

// NewHistogram registers and returns a histogram series over the given
// strictly increasing bucket upper bounds (the +Inf bucket is
// implicit).
func (r *Registry) NewHistogram(name, help string, labels Labels, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %s needs at least one bucket bound", name))
	}
	for i, b := range bounds {
		if math.IsNaN(b) || (i > 0 && b <= bounds[i-1]) {
			panic(fmt.Sprintf("metrics: histogram %s bounds not strictly increasing: %v", name, bounds))
		}
	}
	h := newHistogram(bounds)
	r.register(name, help, "histogram", &series{histogram: h}, labels)
	return h
}

// TextContentType is the Content-Type of the text exposition format.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every family in the text exposition format,
// families sorted by name, series by label string. Func metrics are
// evaluated as they are written.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Copy each family with its series list under the lock: a series
	// registered while the server runs (a backend JOIN) appends to and
	// re-sorts that list.
	r.mu.Lock()
	fams := make([]family, len(r.names))
	for i, n := range r.names {
		fams[i] = *r.families[n]
		fams[i].series = append([]*series(nil), fams[i].series...)
	}
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			writeSeries(&b, f.name, s)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func writeSeries(b *strings.Builder, name string, s *series) {
	switch {
	case s.counter != nil:
		fmt.Fprintf(b, "%s%s %d\n", name, s.labels, s.counter.Value())
	case s.counterFunc != nil:
		fmt.Fprintf(b, "%s%s %d\n", name, s.labels, s.counterFunc())
	case s.gaugeFunc != nil:
		fmt.Fprintf(b, "%s%s %s\n", name, s.labels, formatFloat(s.gaugeFunc()))
	case s.histogram != nil:
		bounds, cum := s.histogram.Buckets()
		for i, bound := range bounds {
			fmt.Fprintf(b, "%s_bucket%s %d\n", name,
				withLabel(s.labels, "le", formatFloat(bound)), cum[i])
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", name,
			withLabel(s.labels, "le", "+Inf"), cum[len(cum)-1])
		fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, formatFloat(s.histogram.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, cum[len(cum)-1])
	}
}

// withLabel appends one k="v" pair to an already-rendered label string.
func withLabel(rendered, key, value string) string {
	pair := key + `="` + value + `"`
	if rendered == "" {
		return "{" + pair + "}"
	}
	return rendered[:len(rendered)-1] + "," + pair + "}"
}

// formatFloat renders a float the way Prometheus clients do: integral
// values without exponent or trailing zeros, 'g' otherwise.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
