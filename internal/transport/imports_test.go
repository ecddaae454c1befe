package transport

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestProtocolLayersDoNotImportSimnet pins the point of the Transport
// interface: the DSM engine and the collector are written against this
// package only. A direct dependency on the simulated network creeping back
// into either would silently re-couple the protocol layers to one substrate.
func TestProtocolLayersDoNotImportSimnet(t *testing.T) {
	const forbidden = "bmx/internal/simnet"
	for _, pkg := range []string{"../dsm", "../core"} {
		entries, err := os.ReadDir(pkg)
		if err != nil {
			t.Fatalf("reading %s: %v", pkg, err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(pkg, name)
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatalf("%s: bad import path %s: %v", path, imp.Path.Value, err)
				}
				if p == forbidden {
					t.Errorf("%s imports %q; protocol layers must depend only on bmx/internal/transport", path, forbidden)
				}
			}
		}
	}
}

// nonTestImports returns the import paths of the non-test Go files
// directly in dir, keyed by file.
func nonTestImports(t *testing.T, dir string) map[string][]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	out := map[string][]string{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatalf("%s: bad import path %s: %v", path, imp.Path.Value, err)
			}
			out[path] = append(out[path], p)
		}
	}
	return out
}

// The payload codec registry lives here, but the payload types do not:
// each protocol package registers its own, so this package must never
// depend on one of them.
func TestTransportImportsNoProtocolPackage(t *testing.T) {
	for path, imps := range nonTestImports(t, ".") {
		for _, p := range imps {
			for _, proto := range []string{"dsm", "core", "ssp", "cluster", "mem", "simnet"} {
				if p == "bmx/internal/"+proto {
					t.Errorf("%s imports %q; the transport must not know protocol packages", path, p)
				}
			}
		}
	}
}

// Payloads cross the wire through explicit registered codecs only: no
// program code in the module links encoding/gob.
func TestNoGobInProgramCode(t *testing.T) {
	err := filepath.WalkDir("../..", func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "../.." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		for path, imps := range nonTestImports(t, dir) {
			for _, p := range imps {
				if p == "encoding/gob" {
					t.Errorf("%s imports encoding/gob; register a payload codec instead", path)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
