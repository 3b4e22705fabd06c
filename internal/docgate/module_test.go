package docgate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
)

// The surface gates read the module through one type-checked load. `go
// list -export -deps -test` names every package, test variants
// included, with its compiled export data. Each in-module package is
// then parsed from its source files and checked with go/types, its
// imports read from that export data. A package with in-package tests is
// checked once, with its tests. The test reads every .go file it checks
// itself, so editing any of them invalidates go test's cached result,
// although the listing came from a subprocess.

// listedPkg is the part of a `go list -json` record the gates read.
type listedPkg struct {
	ImportPath   string
	Dir          string
	Export       string
	ForTest      string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	Deps         []string
	Module       *struct {
		Path string
		Dir  string
		Main bool
	}
}

// typedPkg is one type-checked package: an in-module package with its
// in-package tests, or an external test package.
type typedPkg struct {
	path  string // import path; an external test package's ends in _test
	dir   string // slash-separated directory relative to the module root
	files []*ast.File
	test  []bool // files[i] is a _test.go file
	info  *types.Info
	types *types.Package
}

// module is a type-checked Go module.
type module struct {
	path   string // module path
	fset   *token.FileSet
	pkgs   []*typedPkg           // sorted by path
	listed map[string]*listedPkg // the module's own packages, not their test variants, by import path
}

// repo is this repository, loaded once for every test that reads it.
var repo = sync.OnceValues(func() (*module, error) { return loadModule("../..") })

// loadModule lists and type-checks the module rooted at dir.
func loadModule(dir string) (*module, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-test", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	m := &module{fset: token.NewFileSet(), listed: make(map[string]*listedPkg)}
	// exports maps a test binary (its ForTest, "" outside tests) and an
	// import path to the export data that binary links for that path.
	exports := map[string]map[string]string{"": {}}
	var own []*listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue // a generated test main
		}
		path, _, _ := strings.Cut(p.ImportPath, " ")
		if exports[p.ForTest] == nil {
			exports[p.ForTest] = make(map[string]string)
		}
		exports[p.ForTest][path] = p.Export
		if p.ForTest == "" && p.Module != nil && p.Module.Main {
			m.path = p.Module.Path
			m.listed[path] = p
			own = append(own, p)
		}
	}
	importers := make(map[string]types.Importer)
	importerFor := func(forTest string) types.Importer {
		if imp := importers[forTest]; imp != nil {
			return imp
		}
		imp := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
			file := exports[forTest][path]
			if file == "" {
				file = exports[""][path]
			}
			if file == "" {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(file)
		})
		importers[forTest] = imp
		return imp
	}
	for _, p := range own {
		rel, err := filepath.Rel(p.Module.Dir, p.Dir)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		forTest := ""
		if len(p.TestGoFiles) > 0 {
			forTest = p.ImportPath
		}
		if err := m.check(p.ImportPath, rel, p.Dir, p.GoFiles, p.TestGoFiles, importerFor(forTest)); err != nil {
			return nil, err
		}
		if len(p.XTestGoFiles) > 0 {
			if err := m.check(p.ImportPath+"_test", rel, p.Dir, nil, p.XTestGoFiles, importerFor(p.ImportPath)); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(m.pkgs, func(i, j int) bool { return m.pkgs[i].path < m.pkgs[j].path })
	return m, nil
}

// check parses and type-checks one package from its files in dir.
func (m *module) check(path, rel, dir string, goFiles, testFiles []string, imp types.Importer) error {
	tp := &typedPkg{path: path, dir: rel, info: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}}
	for i, name := range append(append([]string(nil), goFiles...), testFiles...) {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return err
		}
		tp.files = append(tp.files, f)
		tp.test = append(tp.test, i >= len(goFiles))
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", goruntime.GOARCH)}
	pkg, err := conf.Check(path, m.fset, tp.files, tp.info)
	if err != nil {
		return fmt.Errorf("type-checking %s: %v", path, err)
	}
	tp.types = pkg
	m.pkgs = append(m.pkgs, tp)
	return nil
}

// objKey names a package-level function, method or type by import path,
// receiver and name, the same for the object a package's own check
// declares and the one its importers read from export data.
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return obj.Pkg().Path() + "." + typeName(recv.Type()) + "." + obj.Name()
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// typeName is the name of a (pointer to a) named type, "" for others.
func typeName(t types.Type) string {
	if n := named(t); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// named returns the named type t is or points to, nil if neither.
func named(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// probed are the methods the standard library finds by a type assertion
// on a value it holds as an interface (fmt.Stringer, error, errors'
// Unwrap), by name and bare signature: a value converted to any
// interface may reach them without an identifier naming them.
var probed = map[string]bool{
	"String()(string)":  true,
	"Error()(string)":   true,
	"Unwrap()(error)":   true,
	"Unwrap()([]error)": true,
}

// bareSig writes a method as its name and parameter and result types.
func bareSig(fn *types.Func) string {
	var b strings.Builder
	b.WriteString(fn.Name())
	sig := fn.Type().(*types.Signature)
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(tuple.At(i).Type(), func(p *types.Package) string { return p.Path() }))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// use is one place a file names a function or method: the object's key,
// whether the file is a test, and the package directory.
type use struct {
	key  string
	test bool
	dir  string
}

// funcUses calls f for every use of a function or method in the module.
// An identifier that resolves to a function or method is a use of it,
// except a recursive call inside its own body. A value converted to an
// interface uses each of its methods that the interface has, and each
// the standard library probes for (see probed).
func (m *module) funcUses(f func(use)) {
	for _, tp := range m.pkgs {
		for i, file := range tp.files {
			w := &convWalker{info: tp.info, emit: func(key string) { f(use{key, tp.test[i], tp.dir}) }}
			for _, decl := range file.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = tp.info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := tp.info.Uses[id].(*types.Func); ok && fn.Origin() != self && fn.Pkg() != nil {
							w.emit(objKey(fn.Origin()))
						}
					}
					return true
				})
				w.walk(decl)
			}
		}
	}
}

// convWalker finds the implicit and explicit conversions of concrete
// values to interface types in a declaration.
type convWalker struct {
	info    *types.Info
	emit    func(key string)
	results []*types.Tuple // the enclosing functions' results, innermost last
}

func (w *convWalker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Body != nil {
				w.inFunc(w.info.Defs[x.Name].Type().(*types.Signature), x.Body)
			}
			return false
		case *ast.FuncLit:
			w.inFunc(w.info.TypeOf(x).(*types.Signature), x.Body)
			return false
		case *ast.AssignStmt:
			if x.Tok == token.ASSIGN {
				w.flow(x.Rhs, func(i int) types.Type { return w.info.TypeOf(x.Lhs[i]) }, len(x.Lhs))
			}
		case *ast.ValueSpec:
			if x.Type != nil {
				t := w.info.TypeOf(x.Type)
				w.flow(x.Values, func(int) types.Type { return t }, len(x.Names))
			}
		case *ast.ReturnStmt:
			if res := w.results[len(w.results)-1]; res != nil {
				w.flow(x.Results, func(i int) types.Type { return res.At(i).Type() }, res.Len())
			}
		case *ast.SendStmt:
			if ch, ok := w.info.TypeOf(x.Chan).Underlying().(*types.Chan); ok {
				w.convert(x.Value, ch.Elem())
			}
		case *ast.CompositeLit:
			w.compositeLit(x)
		case *ast.CallExpr:
			w.call(x)
		}
		return true
	})
}

// inFunc walks a function body with its results in scope.
func (w *convWalker) inFunc(sig *types.Signature, body *ast.BlockStmt) {
	w.results = append(w.results, sig.Results())
	w.walk(body)
	w.results = w.results[:len(w.results)-1]
}

// flow converts the values to the n targets to(i), spreading one
// multi-valued call across them.
func (w *convWalker) flow(values []ast.Expr, to func(int) types.Type, n int) {
	if len(values) == 1 && n > 1 {
		if tuple, ok := w.info.TypeOf(values[0]).(*types.Tuple); ok {
			for i := 0; i < tuple.Len() && i < n; i++ {
				w.convertType(tuple.At(i).Type(), to(i))
			}
		}
		return
	}
	for i, v := range values {
		if i < n {
			w.convert(v, to(i))
		}
	}
}

func (w *convWalker) call(x *ast.CallExpr) {
	tv := w.info.Types[x.Fun]
	switch {
	case tv.IsType():
		if len(x.Args) == 1 {
			w.convert(x.Args[0], tv.Type)
		}
		return
	case tv.IsBuiltin():
		id, _ := ast.Unparen(x.Fun).(*ast.Ident)
		switch {
		case id != nil && id.Name == "panic" && len(x.Args) == 1:
			w.convert(x.Args[0], types.NewInterfaceType(nil, nil))
		case id != nil && id.Name == "append" && x.Ellipsis == token.NoPos && len(x.Args) > 1:
			if s, ok := w.info.TypeOf(x.Args[0]).Underlying().(*types.Slice); ok {
				for _, a := range x.Args[1:] {
					w.convert(a, s.Elem())
				}
			}
		}
		return
	}
	sig, ok := w.info.TypeOf(x.Fun).Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	param := func(i int) types.Type {
		if sig.Variadic() && i >= params.Len()-1 {
			last := params.At(params.Len() - 1).Type()
			if x.Ellipsis != token.NoPos {
				return last
			}
			return last.Underlying().(*types.Slice).Elem()
		}
		return params.At(i).Type()
	}
	n := params.Len()
	if sig.Variadic() {
		n = len(x.Args)
		if len(x.Args) == 1 {
			if tuple, ok := w.info.TypeOf(x.Args[0]).(*types.Tuple); ok {
				n = tuple.Len()
			}
		}
	}
	w.flow(x.Args, param, n)
}

func (w *convWalker) compositeLit(x *ast.CompositeLit) {
	t := w.info.TypeOf(x)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if fld, ok := w.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
					w.convert(kv.Value, fld.Type())
				}
			} else if i < u.NumFields() {
				w.convert(el, u.Field(i).Type())
			}
		}
	case interface{ Elem() types.Type }: // a slice, array or map
		var key types.Type
		if m, ok := u.(*types.Map); ok {
			key = m.Key()
		}
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if key != nil {
					w.convert(kv.Key, key)
				}
				el = kv.Value
			}
			w.convert(el, u.Elem())
		}
	}
}

func (w *convWalker) convert(e ast.Expr, to types.Type) {
	w.convertType(w.info.TypeOf(e), to)
}

// convertType emits the methods a value of type from offers to an
// interface type to when converted to it.
func (w *convWalker) convertType(from, to types.Type) {
	if from == nil || to == nil || types.IsInterface(from) {
		return
	}
	if _, ok := types.Unalias(to).(*types.TypeParam); ok {
		return
	}
	iface, ok := to.Underlying().(*types.Interface)
	if !ok {
		return
	}
	ms := types.NewMethodSet(from)
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj().(*types.Func)
		if !fn.Exported() {
			continue
		}
		if obj, _, _ := types.LookupFieldOrMethod(iface, false, fn.Pkg(), fn.Name()); obj != nil || probed[bareSig(fn)] {
			w.emit(objKey(fn.Origin()))
		}
	}
}
