package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("no args should error")
	}
	if err := run([]string{"frobnicate"}, &buf); err == nil {
		t.Error("unknown subcommand should error")
	}
	if err := run([]string{"stats"}, &buf); err == nil {
		t.Error("stats without -in should error")
	}
	if err := run([]string{"replay"}, &buf); err == nil {
		t.Error("replay is dnslb-sim -trace now and should be an unknown subcommand")
	}
	if err := run([]string{"gen", "-badflag"}, &buf); err == nil {
		t.Error("bad flag should error")
	}
}

func TestGenStatsPipeline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	var buf bytes.Buffer

	if err := run([]string{"gen", "-out", path, "-duration", "1200", "-seed", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote") {
		t.Errorf("gen output = %q", buf.String())
	}

	buf.Reset()
	if err := run([]string{"stats", "-in", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"records", "sessions", "hit rate", "domain 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestGenToStdout(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"gen", "-duration", "60", "-clients", "50", "-domains", "5"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# dnslb trace v1") {
		t.Errorf("stdout trace missing header: %q", buf.String()[:40])
	}
}

func TestStatsMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"stats", "-in", "/nonexistent/x.trace"}, &buf); err == nil {
		t.Error("missing file should error")
	}
}

func TestImportExportPipeline(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "gen.trace")
	logPath := filepath.Join(dir, "access.log")
	backPath := filepath.Join(dir, "back.trace")
	var buf bytes.Buffer

	if err := run([]string{"gen", "-out", tracePath, "-duration", "300", "-clients", "60", "-domains", "6"}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"export", "-in", tracePath, "-out", logPath}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"import", "-in", logPath, "-out", backPath, "-domains", "6"}, &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run([]string{"stats", "-in", backPath}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "records") {
		t.Errorf("stats on imported trace failed:\n%s", buf.String())
	}
}

func TestImportErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"import"}, &buf); err == nil {
		t.Error("import without -in should error")
	}
	if err := run([]string{"export", "-in", "/nonexistent"}, &buf); err == nil {
		t.Error("export on missing file should error")
	}
	dir := t.TempDir()
	p := filepath.Join(dir, "t.trace")
	if err := run([]string{"gen", "-out", p, "-duration", "60"}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"export", "-in", p, "-base", "not-a-time"}, &buf); err == nil {
		t.Error("bad -base should error")
	}
}
