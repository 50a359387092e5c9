package daesim

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyExportAllowlist names the exported internal identifiers that
// no non-test file uses but that stay: tests in other packages share
// them, or code outside the module calls them.
var testOnlyExportAllowlist = map[string]string{
	"trace.Count":              "drains a Reader; stream-length checks in six packages' tests",
	"workload.All":             "the ten builtins in paper order; workload-sweeping tests iterate it",
	"experiments.PeakThreads":  "Figure 5's saturation point; the sweep and experiments tests assert it",
	"experiments.S1Sampled":    "S1's sampled-figure constructor; the sampled-digest tests pin its output",
	"cache.Cache.Probe":        "line presence without an LRU update; mem's tests inspect the L1 and shared levels",
	"cache.Cache.IsDirty":      "line dirtiness; mem's write-back tests read it across the package boundary",
	"runner.BatchError.Unwrap": "errors.Is and errors.As call it",
	"fabric.Router.ServeHTTP":  "http.Handler; net/http calls it",
	"mem.System.Cache":         "a core's L1 tag array; core's warp tests inspect it across the package boundary",
	"regfile.File.Size":        "the physical register count; rename's tests check the free list against it",
	"regfile.PhysReg.Valid":    "the no-register sentinel check; rename's tests read it across the package boundary",
}

// TestNoTestOnlyExports fails on any exported package-level function,
// type, variable or constant, and any exported method, of an internal
// package that no non-test file uses. Such an export is API surface
// kept alive only by its own tests: delete it with them, move it into a
// _test.go file, or list it above with the reason it stays. The
// benchmark module (daebench/) counts as a caller.
//
// The scan type-checks every non-test file. A selector that resolves to
// a concrete method marks only that method; one that resolves to an
// interface method marks every method of that name, since any
// implementation may be the one called. A method that satisfies
// fmt.Stringer, error, heap.Interface or an interface non-test code
// declares counts as used too: it is called through the interface.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	l := &srcLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*types.Package{},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		_, err = l.load(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every use: "path.Name" for package-level objects, "path.T.M" for
	// concrete methods and ".M" for interface methods.
	used := map[string]bool{}
	for _, info := range l.infos {
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
				used[methodKey(fn)] = true
			} else if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				used[obj.Pkg().Path()+"."+obj.Name()] = true
			}
		}
	}

	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, ref := range [][2]string{{"fmt", "Stringer"}, {"container/heap", "Interface"}} {
		pkg, err := l.std.Import(ref[0])
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(ref[1]).Type().Underlying().(*types.Interface))
	}
	for _, pkg := range l.pkgs {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}

	type export struct{ key, use string }
	var exports []export
	for _, path := range slices.Sorted(maps.Keys(l.pkgs)) {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		pkg := l.pkgs[path]
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				exports = append(exports, export{pkg.Name() + "." + name, path + "." + name})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					exports = append(exports, export{pkg.Name() + "." + name + "." + m.Name(), methodKey(m)})
				}
			}
			// Methods called through an interface the type satisfies.
			if named.TypeParams().Len() > 0 {
				continue
			}
			for _, it := range ifaces {
				if !types.Implements(named, it) && !types.Implements(types.NewPointer(named), it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					used[path+"."+name+"."+it.Method(i).Name()] = true
				}
			}
		}
	}

	for _, e := range exports {
		_, allowed := testOnlyExportAllowlist[e.key]
		switch {
		case !used[e.use] && !allowed:
			t.Errorf("%s is exported but no non-test file uses it", e.key)
		case used[e.use] && allowed:
			t.Errorf("allowlisted %s now has a non-test caller; drop it from the allowlist", e.key)
		}
	}
}

// methodKey names a method as a use: "path.T.M" for a method of a
// concrete type, ".M" for an interface method.
func methodKey(fn *types.Func) string {
	fn = fn.Origin()
	recv := fn.Signature().Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || types.IsInterface(named) {
		return "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
}

// srcLoader type-checks this repository's packages from their non-test
// files, in one type universe: repository imports resolve to packages it
// checked itself, everything else to the source importer.
type srcLoader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	pkgs  map[string]*types.Package // by import path
	infos []*types.Info
}

func (l *srcLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *srcLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if rel, ok := strings.CutPrefix(path, "repro"); ok && (rel == "" || rel[0] == '/') {
		return l.load("." + rel)
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load type-checks the package in dir, a path relative to the module
// root. The benchmark module's path, repro/daebench, is its directory.
func (l *srcLoader) load(dir string) (*types.Package, error) {
	dir = filepath.ToSlash(filepath.Clean(dir))
	path := "repro"
	if dir != "." {
		path += "/" + dir
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.infos = append(l.infos, info)
	return pkg, nil
}
