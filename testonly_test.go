package sensorguard_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyList names every function that only tests reach, one a line:
// the function, then its reason for staying, then a free-text note.
const testOnlyList = "testdata/test_only_funcs.txt"

// testOnlyReasons are the reasons a function reached only from tests may
// stay: a fault or crash hook (seam), a helper a test of kept code reads
// (support), the root facade (api), or a function a planned change calls.
var testOnlyReasons = map[string]bool{"seam": true, "support": true, "api": true, "planned": true}

// TestNoTestOnlyCode type-checks every non-test file of the module and of
// perfbench/ and fails when the set of functions no non-test code reaches
// differs from testOnlyList, in either direction.
func TestNoTestOnlyCode(t *testing.T) {
	unreached, err := scanTestOnlyFuncs(".", "perfbench")
	if err != nil {
		t.Fatal(err)
	}
	listed, err := readTestOnlyList(testOnlyList, testOnlyReasons)
	if err != nil {
		t.Fatal(err)
	}
	checkListed(t, unreached, listed,
		"%s is reached only from tests: delete it, call it from non-test code, or list it in %s with a reason",
		"%s is listed in %s but is gone or has a non-test caller: remove its line", testOnlyList)
}

// testOnlyFieldList names every exported field of configTypes that no
// non-test code outside its own package writes, one a line: the field, the
// reason "seam", then a note.
const testOnlyFieldList = "testdata/test_only_fields.txt"

// configTypes are the option structs of the serving stack. An exported
// field of one is a value a caller may set, so each must have a caller that
// sets it.
var configTypes = []string{
	"sensorguard/internal/fleet.Config",
	"sensorguard/internal/fleet.Durability",
	"sensorguard/internal/ingest.ShipperConfig",
	"sensorguard/internal/obs.TracerConfig",
	"sensorguard/internal/obs/profiles.Config",
	"sensorguard/internal/obs/tsdb.Config",
}

// TestNoTestOnlyConfigFields fails when an exported field of configTypes
// has no non-test writer outside its declaring package and is not listed in
// testOnlyFieldList as a seam, or when a listed field is gone or has gained
// such a writer. An option only tests set is one value in use: make it a
// constant, with an unexported field where a same-package test needs
// another value.
func TestNoTestOnlyConfigFields(t *testing.T) {
	unwritten, err := scanTestOnlyFields(".", "perfbench", configTypes)
	if err != nil {
		t.Fatal(err)
	}
	listed, err := readTestOnlyList(testOnlyFieldList, map[string]bool{"seam": true})
	if err != nil {
		t.Fatal(err)
	}
	checkListed(t, unwritten, listed,
		"%s is set only by tests or its own package: make it a constant or an unexported field, or list it in %s as a seam",
		"%s is listed in %s but is gone or has a non-test writer: remove its line", testOnlyFieldList)
}

// checkListed reports each name in found that listed lacks (unlisted) and
// each listed name found lacks (stale). Both formats take the name and path.
func checkListed(t *testing.T, found []string, listed map[string]string, unlisted, stale, path string) {
	t.Helper()
	for _, name := range found {
		if _, ok := listed[name]; !ok {
			t.Errorf(unlisted, name, path)
		}
		delete(listed, name)
	}
	for name := range listed {
		t.Errorf(stale, name, path)
	}
}

func readTestOnlyList(path string, reasons map[string]bool) (map[string]string, error) {
	var want []string
	for r := range reasons {
		want = append(want, r)
	}
	sort.Strings(want)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	listed := make(map[string]string)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || !reasons[fields[1]] {
			return nil, fmt.Errorf("%s:%d: want \"<name> <%s> [note]\", got %q", path, n, strings.Join(want, "|"), line)
		}
		if _, dup := listed[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, fields[0])
		}
		listed[fields[0]] = fields[1]
	}
	return listed, sc.Err()
}

// srcPkg is one package of non-test files under the module root.
type srcPkg struct {
	path   string
	files  []*ast.File
	report bool // false for perfbench: its files count as callers only
	pkg    *types.Package
	info   *types.Info
}

// testOnlyScan type-checks the module's packages from source, resolving
// their imports of each other to its own results so that every use in any
// package resolves to the same types.Func.
type testOnlyScan struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*srcPkg
}

// Import implements types.Importer: a module package is type-checked here
// on its first import, anything else comes from the standard library source.
func (s *testOnlyScan) Import(path string) (*types.Package, error) {
	p, ok := s.pkgs[path]
	if !ok {
		return s.std.Import(path)
	}
	if p.pkg == nil {
		p.info = &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		conf := types.Config{Importer: s}
		pkg, err := conf.Check(path, s.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.pkg = pkg
	}
	return p.pkg, nil
}

// scanTestOnlyFuncs returns the sorted names of the top-level functions
// and methods under root that no non-test code reaches. A function is
// reached when a non-test identifier outside its own body resolves to it;
// a method also when its receiver type implements an interface, anywhere
// in the import graph, that has a method of that name. Files under
// callersOnly count as callers but are never reported.
func scanTestOnlyFuncs(root, callersOnly string) ([]string, error) {
	s, err := loadTestOnlyScan(root, callersOnly)
	if err != nil {
		return nil, err
	}
	ifaces, err := s.interfaces()
	if err != nil {
		return nil, err
	}

	// Every top-level function declaration, and the span of its body.
	type decl struct {
		pkg  *srcPkg
		recv *types.Named
		pos  token.Pos
		end  token.Pos
	}
	decls := make(map[*types.Func]decl)
	for _, p := range s.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" || (fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main")) {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				var recv *types.Named
				if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
					rt := sig.Recv().Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					recv, _ = rt.(*types.Named)
				}
				decls[fn] = decl{pkg: p, recv: recv, pos: fd.Pos(), end: fd.End()}
			}
		}
	}

	reached := make(map[*types.Func]bool)
	for _, p := range s.pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d, ok := decls[fn]; ok && d.pos <= id.Pos() && id.Pos() < d.end {
				continue // recursion does not reach a function
			}
			reached[fn] = true
		}
	}
	satisfies := func(fn *types.Func, recv *types.Named) bool {
		for _, it := range ifaces[fn.Name()] {
			if recv.TypeParams().Len() > 0 || types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	var unreached []string
	for fn, d := range decls {
		if !d.pkg.report || reached[fn] || (d.recv != nil && satisfies(fn, d.recv)) {
			continue
		}
		name := d.pkg.path + "."
		if d.recv != nil {
			name += d.recv.Obj().Name() + "."
		}
		unreached = append(unreached, name+fn.Name())
	}
	sort.Strings(unreached)
	return unreached, nil
}

// scanTestOnlyFields returns the sorted names of the exported fields of
// typeNames (each "<package path>.<type>") that no non-test code outside
// the field's own package writes. A field is written where it is a key of
// a composite literal or the selector on the left of an assignment or an
// increment. Files under callersOnly count as writers.
func scanTestOnlyFields(root, callersOnly string, typeNames []string) ([]string, error) {
	s, err := loadTestOnlyScan(root, callersOnly)
	if err != nil {
		return nil, err
	}
	fields := make(map[*types.Var]string)
	for _, name := range typeNames {
		dot := strings.LastIndex(name, ".")
		p, ok := s.pkgs[name[:dot]]
		if !ok {
			return nil, fmt.Errorf("%s: no such package", name)
		}
		tn, ok := p.pkg.Scope().Lookup(name[dot+1:]).(*types.TypeName)
		if !ok {
			return nil, fmt.Errorf("%s: no such type", name)
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			return nil, fmt.Errorf("%s: not a struct", name)
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				fields[f] = name + "." + f.Name()
			}
		}
	}

	written := make(map[*types.Var]bool)
	for _, p := range s.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				var keys []ast.Expr
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							keys = append(keys, kv.Key)
						}
					}
				case *ast.AssignStmt:
					keys = n.Lhs
				case *ast.IncDecStmt:
					keys = []ast.Expr{n.X}
				}
				for _, k := range keys {
					k = ast.Unparen(k)
					if sel, ok := k.(*ast.SelectorExpr); ok {
						k = sel.Sel
					}
					id, ok := k.(*ast.Ident)
					if !ok {
						continue
					}
					if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != p.pkg {
						written[v.Origin()] = true
					}
				}
				return true
			})
		}
	}

	var unwritten []string
	for f, name := range fields {
		if !written[f] {
			unwritten = append(unwritten, name)
		}
	}
	sort.Strings(unwritten)
	return unwritten, nil
}

// loadTestOnlyScan parses the non-test files of every package under root
// and type-checks them.
func loadTestOnlyScan(root, callersOnly string) (*testOnlyScan, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	// Type-check the standard library without cgo, so the scan needs no C
	// toolchain; no file of the module uses cgo.
	build.Default.CgoEnabled = false
	s := &testOnlyScan{fset: token.NewFileSet(), pkgs: make(map[string]*srcPkg)}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		p := &srcPkg{path: modPath, report: true}
		if rel != "." {
			p.path += "/" + filepath.ToSlash(rel)
			p.report = rel != callersOnly && !strings.HasPrefix(rel, callersOnly+string(filepath.Separator))
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			ok, err := build.Default.MatchFile(dir, name)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		if len(p.files) > 0 {
			s.pkgs[p.path] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range s.pkgs {
		if _, err := s.Import(path); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// interfaces indexes by method name the interfaces with methods: every
// interface type an object of a package in the import graph is declared
// with, in any scope, the error interface, and the interface literals in
// module code.
func (s *testOnlyScan) interfaces() (map[string][]*types.Interface, error) {
	ifaces := make(map[string][]*types.Interface)
	var addType func(types.Type)
	addType = func(t types.Type) {
		switch t := t.(type) {
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				ifaces[t.Method(i).Name()] = append(ifaces[t.Method(i).Name()], t)
			}
		case *types.Pointer:
			addType(t.Elem())
		case *types.Slice:
			addType(t.Elem())
		case *types.Array:
			addType(t.Elem())
		case *types.Chan:
			addType(t.Elem())
		case *types.Map:
			addType(t.Key())
			addType(t.Elem())
		case *types.Signature:
			addType(t.Params())
			addType(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				addType(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				addType(t.Field(i).Type())
			}
		}
	}
	var addScope func(*types.Scope)
	addScope = func(scope *types.Scope) {
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.TypeName:
				if n, ok := obj.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					addType(n.Underlying())
				}
			case *types.Var, *types.Func:
				addType(obj.Type())
			}
		}
		for i := 0; i < scope.NumChildren(); i++ {
			addScope(scope.Child(i))
		}
	}
	addType(types.Universe.Lookup("error").Type().Underlying())
	errorsFile, err := parser.ParseFile(s.fset, "errors_body.go", errorsBodyInterfaces, 0)
	if err != nil {
		return nil, err
	}
	errorsBody, err := (&types.Config{}).Check("errors_body", s.fset, []*ast.File{errorsFile}, nil)
	if err != nil {
		return nil, err
	}
	addScope(errorsBody.Scope())
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		addScope(pkg.Scope())
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range s.pkgs {
		walk(p.pkg)
		for expr, tv := range p.info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				addType(tv.Type)
			}
		}
	}
	return ifaces, nil
}

// errorsBodyInterfaces are the interfaces package errors asserts inside
// function bodies, which the source importer does not type-check.
const errorsBodyInterfaces = `package errors

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
