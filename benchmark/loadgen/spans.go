package loadgen

import "sync"

// Span is one traced interval. Times are ns on the clock of whoever
// recorded it; Parent is the index of the causing span plus one, zero
// for a root.
type Span struct {
	Name   string `json:"name,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent,omitempty"`
	ID     uint32 `json:"id"`
	Kind   Kind   `json:"kind"`
}

// SpanLog keeps the most recent spans in memory; the caller writes
// them out when the benchmark ends. It is a fixed-size ring so that a
// traced phase pays the recording cost on every query without the log
// growing with the phase length.
type SpanLog struct {
	mu    sync.Mutex
	spans []Span
	n     uint64
}

// NewSpanLog returns a log that keeps the last size spans.
func NewSpanLog(size int) *SpanLog { return &SpanLog{spans: make([]Span, size)} }

// Add records one span.
func (l *SpanLog) Add(s Span) {
	l.mu.Lock()
	l.spans[l.n%uint64(len(l.spans))] = s
	l.n++
	l.mu.Unlock()
}

// Spans returns the kept spans, oldest first, and how many were recorded in all.
func (l *SpanLog) Spans() ([]Span, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := uint64(len(l.spans))
	if l.n <= size {
		return append([]Span(nil), l.spans[:l.n]...), l.n
	}
	at := l.n % size
	return append(append([]Span(nil), l.spans[at:]...), l.spans[:at]...), l.n
}
