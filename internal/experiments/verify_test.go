package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestClaimsWellFormed(t *testing.T) {
	claims := Claims()
	if len(claims) != 12 {
		t.Fatalf("claims = %d, want 12", len(claims))
	}
	seen := make(map[string]bool)
	for _, c := range claims {
		if c.ID == "" || c.Statement == "" || c.Check == nil {
			t.Errorf("claim %+v incomplete", c.ID)
		}
		if seen[c.ID] {
			t.Errorf("duplicate claim ID %q", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestVerifyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs the full claim suite")
	}
	// Shortened runs: the claims must be robust enough to hold even on
	// 30 simulated minutes.
	o := Options{Duration: 1800, Reps: 1, Seed: 1}
	var buf bytes.Buffer
	failed, err := Verify(o, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if failed != 0 {
		t.Errorf("%d claims failed:\n%s", failed, out)
	}
	if !strings.Contains(out, "12/12 claims hold") {
		t.Errorf("summary missing:\n%s", out)
	}
	for _, c := range Claims() {
		if !strings.Contains(out, c.ID) {
			t.Errorf("report missing claim %s", c.ID)
		}
	}
}

func TestVerifyInvalidOptions(t *testing.T) {
	var buf bytes.Buffer
	bad := Options{}
	if _, err := Verify(bad, &buf); err == nil {
		t.Error("invalid options should error")
	}
}
