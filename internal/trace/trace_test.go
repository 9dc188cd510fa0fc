package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Time: 0.5, Domain: 0, Client: 1, Hits: 7, NewSession: true},
		{Time: 1.25, Domain: 0, Client: 1, Hits: 5},
		{Time: 2.0, Domain: 3, Client: 9, Hits: 15, NewSession: true},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sampleRecords()
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# dnslb trace v1") {
		t.Error("missing header comment")
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records", len(out))
	}
	for i := range in {
		if math.Abs(out[i].Time-in[i].Time) > 1e-6 ||
			out[i].Domain != in[i].Domain ||
			out[i].Client != in[i].Client ||
			out[i].Hits != in[i].Hits ||
			out[i].NewSession != in[i].NewSession {
			t.Errorf("record %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		"",                         // no records
		"1.0 0 1 5",                // missing field
		"x 0 1 5 0",                // bad time
		"-1 0 1 5 0",               // negative time
		"inf 0 0 5 1",              // infinite time: a replay never fires it
		"NaN 0 0 5 1",              // not a time
		"1.0 -1 1 5 0",             // bad domain
		"1.0 0 -1 5 0",             // bad client
		"1.0 0 1 0 0",              // zero hits
		"1.0 0 1 5 7",              // bad newsession flag
		"2.0 0 1 5 0\n1.0 0 1 5 0", // time goes backwards
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d (%q) should fail", i, c)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\n1.0 0 1 5 1\n# more\n2.0 0 1 3 0\n"
	out, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("records = %d, want 2", len(out))
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sampleRecords())
	if s.Records != 3 || s.Sessions != 2 || s.Clients != 2 || s.Domains != 4 {
		t.Errorf("summary = %+v", s)
	}
	if s.TotalHits != 27 {
		t.Errorf("TotalHits = %d, want 27", s.TotalHits)
	}
	if math.Abs(s.Duration-1.5) > 1e-9 {
		t.Errorf("Duration = %v, want 1.5", s.Duration)
	}
	if math.Abs(s.HitRate-18) > 1e-9 {
		t.Errorf("HitRate = %v, want 18", s.HitRate)
	}
	if math.Abs(s.DomainShare[0]-12.0/27) > 1e-9 {
		t.Errorf("DomainShare[0] = %v", s.DomainShare[0])
	}
	if got := Summarize(nil); got.Records != 0 {
		t.Error("empty summary should be zero")
	}
}
