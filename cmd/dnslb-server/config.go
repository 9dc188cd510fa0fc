package main

// Configuration file support. -config points at a flag-per-line file
// carrying the same settings as the command-line flags:
//
//	# dnslb-server configuration
//	zone       www.site.example
//	addr       127.0.0.1:5353
//	policy     DRR2-TTL/S_K
//	servers    10.0.0.1,10.0.0.2,10.0.0.3
//	capacities 100,80,50
//
// Keys are flag names; '=' between key and value is optional; '#'
// starts a comment. Precedence at startup is command line > config
// file > built-in defaults (a flag given explicitly on the command
// line is never overridden by the file).
//
// On SIGHUP the command line is parsed again over the re-read file, just
// as at startup, and a configuration a restart would refuse is refused
// whole. Of one it would accept, the server set is diffed against the
// running membership: new addresses join, missing addresses drain
// gracefully, changed capacities apply in place. All other settings
// are bound at startup; a reload that changes one logs a warning and
// ignores it.

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"dnslb"
)

// parseConfigFile parses a flag-per-line configuration file into
// ordered (key, value) pairs. It validates shape only — key syntax,
// duplicates, the presence of a value — leaving value semantics to the
// flag set that applies them.
func parseConfigFile(data []byte) ([][2]string, error) {
	var kvs [][2]string
	seen := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		i := strings.IndexAny(line, " \t=")
		if i < 0 {
			return nil, fmt.Errorf("line %d: %q has no value", lineNo, line)
		}
		key := line[:i]
		val := strings.TrimSpace(line[i:])
		if strings.HasPrefix(val, "=") {
			val = strings.TrimSpace(val[1:])
		}
		if !validConfigKey(key) {
			return nil, fmt.Errorf("line %d: bad setting name %q", lineNo, key)
		}
		if key == "config" {
			return nil, fmt.Errorf("line %d: %q cannot be set from a config file", lineNo, key)
		}
		if seen[key] {
			return nil, fmt.Errorf("line %d: duplicate setting %q", lineNo, key)
		}
		seen[key] = true
		kvs = append(kvs, [2]string{key, val})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return kvs, nil
}

// validConfigKey accepts flag-shaped names: a letter followed by
// letters, digits, and dashes.
func validConfigKey(key string) bool {
	if key == "" {
		return false
	}
	for i, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case i > 0 && (r >= '0' && r <= '9' || r == '-'):
		default:
			return false
		}
	}
	return true
}

// applyConfigFile layers the config file under the command line: every
// setting in the file is applied through fs.Set unless the same flag
// was given explicitly on the command line. Call after fs.Parse.
func applyConfigFile(fs *flag.FlagSet, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	kvs, err := parseConfigFile(data)
	if err != nil {
		return fmt.Errorf("config %s: %w", path, err)
	}
	fromCmdline := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { fromCmdline[f.Name] = true })
	for _, kv := range kvs {
		name, val := kv[0], kv[1]
		if fs.Lookup(name) == nil {
			return fmt.Errorf("config %s: unknown setting %q", path, name)
		}
		if fromCmdline[name] {
			continue
		}
		if err := fs.Set(name, val); err != nil {
			return fmt.Errorf("config %s: %s: %w", path, name, err)
		}
	}
	return nil
}

// reloadConfig configures from the command line again — and so from the
// config file as it is now — and applies the server set to the running
// server (see the top of this file). running holds the flags as they were
// parsed at startup.
func reloadConfig(args []string, running *flag.FlagSet, srv *dnslb.DNSServer, logger *slog.Logger) error {
	s, err := configure(args)
	if err != nil {
		return err
	}
	if _, err := newServer(s.server); err != nil {
		return err
	}
	s.flags.VisitAll(func(f *flag.Flag) {
		if was := running.Lookup(f.Name).Value.String(); was != f.Value.String() && f.Name != "servers" && f.Name != "capacities" {
			logger.Warn("config setting needs a restart; ignored on reload",
				"setting", f.Name, "running", was, "file", f.Value.String())
		}
	})
	if err := srv.Reconfigure(s.server.ServerAddrs, s.capacities); err != nil {
		return err
	}
	logger.Info("config reloaded", "path", s.configPath, "servers", len(s.capacities))
	return nil
}
