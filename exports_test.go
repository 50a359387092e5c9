package daesim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExportAllowlist names the exported internal identifiers that
// only tests reference but that stay, because tests in other packages
// share them.
var testOnlyExportAllowlist = map[string]string{
	"trace.Count":             "drains a Reader; stream-length checks in six packages' tests",
	"workload.All":            "the ten builtins in paper order; workload-sweeping tests iterate it",
	"experiments.PeakThreads": "Figure 5's saturation point; the sweep and experiments tests assert it",
	"experiments.S1Sampled":   "S1's sampled request builder; the sampled-digest tests pin its output",
}

// TestNoTestOnlyExports fails on any exported package-level function,
// type, variable or constant of an internal package that no non-test
// file references. Such an export is API surface kept alive only by its
// own tests: delete it with them, move it into a _test.go file, or list
// it above with the reason it stays. The benchmark module (daebench/)
// counts as a caller. Methods are not checked. The scan is syntactic
// (go/parser, no type checking), so a same-named local or struct field
// can hide a dead export, but a reported one is never live.
func TestNoTestOnlyExports(t *testing.T) {
	type export struct{ key, use, file string }
	var exports []export
	used := map[string]bool{} // "import/path.Name" of every non-test reference
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		self := "repro/" + filepath.ToSlash(filepath.Dir(p))

		// A declared name, a method receiver and the field of a
		// selector are not uses of a package-level identifier.
		skip := map[ast.Node]bool{}
		declare := func(id *ast.Ident) {
			skip[id] = true
			if id.IsExported() && strings.HasPrefix(self, "repro/internal/") {
				exports = append(exports, export{f.Name.Name + "." + id.Name, self + "." + id.Name, p})
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					skip[d.Recv], skip[d.Name] = true, true
				} else {
					declare(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id)
						}
					}
				}
			}
		}

		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if skip[n] {
				return false
			}
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						used[ip+"."+n.Sel.Name] = true
						return false
					}
				}
				skip[n.Sel] = true
			case *ast.Ident:
				used[self+"."+n.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, e := range exports {
		_, allowed := testOnlyExportAllowlist[e.key]
		switch {
		case !used[e.use] && !allowed:
			t.Errorf("%s (%s) is exported but no non-test file references it", e.key, e.file)
		case used[e.use] && allowed:
			t.Errorf("allowlisted %s now has a non-test caller; drop it from the allowlist", e.key)
		}
	}
}
