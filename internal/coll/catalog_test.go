package coll

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The collective catalog is what the code calls: every exported function
// of this package must be referenced as coll.<Name> by at least one
// non-test Go file outside it — an algorithm package, a benchmark or
// experiment harness, a wire program or a command. A collective that
// only tests reach is dead weight; delete it or unexport it.
func TestExportedCollectivesHaveCallers(t *testing.T) {
	const collPath = "commtopk/internal/coll"
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	collDir := filepath.Join(root, "internal", "coll")
	fset := token.NewFileSet()

	// The catalog: exported top-level functions of this package.
	exported := map[string]bool{}
	pkgFiles, err := filepath.Glob(filepath.Join(collDir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range pkgFiles {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				exported[fd.Name.Name] = true
			}
		}
	}
	if len(exported) == 0 {
		t.Fatal("no exported functions found; the package path moved?")
	}

	// The callers: coll.<Name> selectors in non-test files elsewhere,
	// under whatever name each file imports the package.
	called := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == collDir || (path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == collPath {
				local = "coll"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					called[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var orphans []string
	for name := range exported {
		if !called[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	for _, name := range orphans {
		t.Errorf("coll.%s has no non-test caller outside internal/coll: delete it or unexport it", name)
	}
}
