package main

import (
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// Only surface.go may import the program's packages, and it may not import
// the program's own benchmark or workload code.
func TestSurfaceIsTheOnlyCoupling(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(path, "sharper") {
				continue
			}
			if name != "surface.go" {
				t.Errorf("%s imports %s: program symbols belong in surface.go", name, path)
			}
			if path == "sharper/internal/bench" || path == "sharper/internal/workload" {
				t.Errorf("%s imports %s, which the benchmark must stay independent of", name, path)
			}
		}
	}
}
