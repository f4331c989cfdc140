package coll

import (
	"cmp"
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
	for _, name := range uncalledExports(t, "coll", func(string) bool { return true }, anyCaller) {
		t.Errorf("coll.%s has no non-test caller outside internal/coll: delete it or unexport it", name)
	}
}

// The same rule for redistribution's plan and the local selection
// kernels: a second plan builder or a kernel that only tests reach fails
// here.
func TestRedistAndQselExportsHaveCallers(t *testing.T) {
	for _, pkg := range []string{"redist", "qsel"} {
		for _, name := range uncalledExports(t, pkg, func(string) bool { return true }, anyCaller) {
			t.Errorf("%s.%s has no non-test caller outside internal/%s: delete it or unexport it", pkg, name, pkg)
		}
	}
}

// The same rule for the continuation forms of the algorithm packages: a
// family keeps an exported …Step constructor only while non-test code
// outside its package drives it (serve's mux, the scaling suite, the
// benchmark's probes, or another package's stepper). A stepper only tests
// reach is a second path to keep bit-identical with the blocking form for
// nothing; delete it and keep the blocking code.
//
// A collective is a stepper only where a stepper composes it, so for coll
// neither the experiments nor the benchmark count as callers, and neither
// does a reference that is the direct argument of comm.RunSteps — that is
// blocking code, which calls the blocking form.
func TestExportedSteppersHaveCallers(t *testing.T) {
	isStep := func(name string) bool { return strings.HasSuffix(name, "Step") }
	for _, pkg := range []string{"sel", "dht", "freq", "mtopk"} {
		for _, name := range uncalledExports(t, pkg, isStep, anyCaller) {
			t.Errorf("%s.%s has no non-test caller outside internal/%s: delete the stepper", pkg, name, pkg)
		}
	}
	composer := callers{
		skip:          []string{filepath.Join("internal", "experiments"), "bench"},
		notInRunSteps: true,
	}
	for _, name := range uncalledExports(t, "coll", isStep, composer) {
		t.Errorf("coll.%s is composed by no stepper outside internal/coll: make it blocking code", name)
	}
}

// callers says which references count as a caller.
type callers struct {
	// skip lists module-relative directories whose files do not count.
	skip []string
	// notInRunSteps discounts a reference that is the direct argument of
	// comm.RunSteps.
	notInRunSteps bool
}

var anyCaller = callers{}

// uncalledExports returns, sorted, the exported top-level functions of
// internal/<pkg> that keep selects and that no non-test Go file outside
// the package references as <pkg>.<Name>, under whatever name each file
// imports it, by a reference that by counts as a caller.
func uncalledExports(t *testing.T, pkg string, keep func(name string) bool, by callers) []string {
	t.Helper()
	pkgPath := "commtopk/internal/" + pkg
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	pkgDir := filepath.Join(root, "internal", pkg)
	fset := token.NewFileSet()

	// The catalog: exported top-level functions of the package that keep
	// selects (found counts them all, to tell a moved package).
	exported := map[string]bool{}
	found := 0
	pkgFiles, err := filepath.Glob(filepath.Join(pkgDir, "*.go"))
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
				found++
				if keep(fd.Name.Name) {
					exported[fd.Name.Name] = true
				}
			}
		}
	}
	if found == 0 {
		t.Fatalf("no exported functions found in %s; the package path moved?", pkgDir)
	}

	// The callers: <pkg>.<Name> selectors in non-test files elsewhere.
	called := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == pkgDir || (path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor")) {
				return filepath.SkipDir
			}
			for _, dir := range by.skip {
				if path == filepath.Join(root, dir) {
					return filepath.SkipDir
				}
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
		local, commLocal := "", "comm"
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := ""
			if imp.Name != nil {
				name = imp.Name.Name
			}
			switch p {
			case pkgPath:
				local = cmp.Or(name, pkg)
			case "commtopk/internal/comm":
				commLocal = cmp.Or(name, "comm")
			}
		}
		if local == "" {
			return nil
		}
		// The references to discount: direct arguments of comm.RunSteps.
		discounted := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !by.notInRunSteps || !isSelector(call.Fun, commLocal, "RunSteps") {
				return true
			}
			for _, arg := range call.Args {
				if inner, ok := arg.(*ast.CallExpr); ok {
					if sel := calleeSelector(inner.Fun); sel != nil {
						discounted[sel] = true
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && !discounted[sel] {
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
	return orphans
}

// isSelector reports whether e is the selector pkg.name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg
}

// calleeSelector returns the selector a call's function expression names,
// through explicit type arguments (pkg.F[T]), or nil.
func calleeSelector(fun ast.Expr) *ast.SelectorExpr {
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	sel, _ := fun.(*ast.SelectorExpr)
	return sel
}
