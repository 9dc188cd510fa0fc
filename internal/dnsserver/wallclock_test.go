package dnsserver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wallClockSites names every place in the package's non-test code that
// reads the machine's clock or waits on it, by file and enclosing
// function, with the reason it may. Every decision of the control plane —
// drain retirement, liveness, restored hidden-load windows — reads the
// engine clock (s.clock) instead, so a test can step it; a new wall-clock
// site either joins this list with a reason or moves onto that clock.
var wallClockSites = map[string]string{
	"admin.go Server.record":                 "recording length, as the read deadline that ends it",
	"checkpoint.go Server.Checkpoint":        "persisted wall instant: the checkpoint's SavedAt",
	"checkpoint.go Server.RestoreCheckpoint": "persisted wall instant: the checkpoint's age",
	"doh.go streamBufs.appendHTTPHead":       "DoH Date header",
	"doh.go Server.exchangeHTTP":             "syscall deadline: half a second to read what a refused client still sends",
	"ratelimit.go NewRateLimiter":            "the rate limiter's own now: the limiter is built outside the server",
	"replication.go Server.newReplication":   "replica restart epoch, which fences writes across restarts",
	"serve.go Server.every":                  "ticker: when the control plane looks; what it sees is the engine clock",
	"serve.go Server.backOff":                "serve-loop error backoff",
	"serve.go Server.Shutdown":               "syscall deadline: now, to wake blocked reads",
	"serve.go Server.serveUDP":               "latency measurement",
	"serve.go Server.acceptLoop":             "syscall deadline: now, for a connection tracked after Shutdown",
	"serve.go streamBufs.Write":              "syscall deadline: the write timeout",
	"serve.go Server.serveStream":            "syscall deadline: the idle and request timeouts",
}

// wallClockFuncs are the package time functions that read or wait on the
// machine's clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "AfterFunc": true, "NewTimer": true,
	"NewTicker": true, "Sleep": true, "After": true, "Tick": true,
}

// TestWallClockSites walks the package's non-test files and fails on a use
// of the machine's clock outside wallClockSites, and on a listed site that
// no longer uses it. A use is a call or a function value (time.Now passed
// as a clock counts).
func TestWallClockSites(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string][]string{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		timePkg := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		if timePkg == "" {
			continue
		}
		for _, decl := range f.Decls {
			site := name + " " + declName(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == timePkg && wallClockFuncs[sel.Sel.Name] {
					found[site] = append(found[site], fset.Position(sel.Pos()).String()+" time."+sel.Sel.Name)
				}
				return true
			})
		}
	}
	var sites []string
	for site := range found {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		if _, ok := wallClockSites[site]; !ok {
			t.Errorf("%s reads the machine's clock at %v: use the engine clock, or list the site with its reason",
				site, found[site])
		}
	}
	for site := range wallClockSites {
		if found[site] == nil {
			t.Errorf("listed wall-clock site %s no longer reads the clock: delete it from the list", site)
		}
	}
}

// declName names a top-level declaration as the site list does: a function
// by its name, a method by receiver type and name, anything else by its
// token ("var", "const").
func declName(decl ast.Decl) string {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok {
		return decl.(*ast.GenDecl).Tok.String()
	}
	if fn.Recv == nil {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok {
		typ = idx.X
	}
	return typ.(*ast.Ident).Name + "." + fn.Name.Name
}
