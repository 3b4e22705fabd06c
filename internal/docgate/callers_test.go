package docgate

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnly is the reason of an allowed function that only tests call. It
// holds only while a test of another package names it: one that its own
// package's tests alone name belongs in one of their _test.go files.
const testOnly = "test-only helper"

// uncalledAllowed are the exported functions and methods under internal/
// that no non-test file names, each with the reason it stays. Keys are
// "<package dir>.<name>" or "<package dir>.<receiver>.<name>".
var uncalledAllowed = map[string]string{
	"gateway.Client.BlobBytes":      "Go SDK for the HTTP API: surface on purpose",
	"gateway.Client.CancelJob":      "Go SDK for the HTTP API: surface on purpose",
	"gateway.Client.JobEvents":      "Go SDK for the HTTP API: surface on purpose",
	"gateway.Client.ListJobs":       "Go SDK for the HTTP API: surface on purpose",
	"gateway.Client.SubmitBatch":    "Go SDK for the HTTP API: surface on purpose",
	"gateway.IsOverloaded":          "Go SDK for the HTTP API: surface on purpose",
	"gateway.IsUnavailable":         "Go SDK for the HTTP API: surface on purpose",
	"gateway.WithMaxBlobBytes":      "Go SDK for the HTTP API: surface on purpose",
	"gateway.IsBlobTooLarge":        "Go SDK for the HTTP API: surface on purpose",
	"transport.Chaos":               "fault-injection control: surface on purpose",
	"transport.ChaosConn.Heal":      "fault-injection control: surface on purpose",
	"transport.ChaosConn.Kill":      "fault-injection control: surface on purpose",
	"transport.ChaosConn.Partition": "fault-injection control: surface on purpose",
	"transport.ChaosConn.Sends":     "fault-injection control: surface on purpose",
	"cluster.PeerLostError.Unwrap":  "called by errors.Is and errors.As",
	"bptree.GetDirect":              "the reference lookup tests compare the Fix lookup against",
	"bench.ScaleFromEnv":            testOnly,
	"flatware.ReadFile":             "the host-side reference reader tests compare in-Fix file reads against",
	"flatware.List":                 "the host-side reference walk tests compare archive contents against",
}

// TestExportedFunctionsHaveCallers fails when an exported function or
// method declared under internal/ is named by no non-test Go file in the
// module (ROADMAP item 13: only what something uses). A function counts
// as used where its package names it: as pkg.Name in a file importing
// the package, or as Name in the package itself. A method counts as used
// wherever its name appears outside its own declaration and off a
// package name, so a method reached through an interface is used once
// the interface method is called. Delete such a function, give it a
// caller, or allow it above with its reason. The test files are scanned
// too: a testOnly helper that no test outside its own package names
// fails, since it can move into its package's tests.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	usedNames := make(map[string]bool) // every identifier: a method's use
	usedFuncs := make(map[string]bool) // "<import path>.<name>": a function's use
	// testUsers maps a use in a _test.go file (a usedFuncs key, or "."
	// and a method name) to the directories of the tests naming it.
	testUsers := make(map[string]map[string]bool)
	type decl struct {
		at     string // "file:line"
		dir    string // the declaring package's directory
		use    string // the usedFuncs key for a function, "" for a method
		method string // the method name
	}
	declared := make(map[string]decl)
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "../.." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		isTest := strings.HasSuffix(path, "_test.go")
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(path)
		pkgDir := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), "../..")
		self := "fixgo" + pkgDir // the file's import path
		dir, inInternal := strings.CutPrefix(pkgDir, "/internal/")
		imports := make(map[string]string) // local name → import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndexByte(p, '/')+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		useFunc, useName := func(key string) { usedFuncs[key] = true }, func(name string) { usedNames[name] = true }
		if isTest {
			useFunc = func(key string) {
				if testUsers[key] == nil {
					testUsers[key] = make(map[string]bool)
				}
				testUsers[key][pkgDir] = true
			}
			useName = func(name string) { useFunc("." + name) }
		}
		for _, d := range f.Decls {
			fd, isFunc := d.(*ast.FuncDecl)
			if isFunc && inInternal && !isTest && fd.Name.IsExported() {
				at := fmt.Sprintf("%s:%d", rel, fset.Position(fd.Pos()).Line)
				if fd.Recv == nil {
					declared[funcKey(filepath.Base(dir), fd)] = decl{at: at, dir: pkgDir, use: self + "." + fd.Name.Name}
				} else {
					declared[funcKey(filepath.Base(dir), fd)] = decl{at: at, dir: pkgDir, method: fd.Name.Name}
				}
			}
			notBare := make(map[*ast.Ident]bool)   // selected, declared and key names
			qualified := make(map[*ast.Ident]bool) // the Name of pkg.Name
			if isFunc {
				notBare[fd.Name] = true
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.Field:
					for _, id := range x.Names {
						notBare[id] = true
					}
				case *ast.SelectorExpr:
					if pkg, ok := x.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
						useFunc(imports[pkg.Name] + "." + x.Sel.Name)
						qualified[x.Sel] = true
					}
					notBare[x.Sel] = true
				case *ast.KeyValueExpr:
					if key, ok := x.Key.(*ast.Ident); ok {
						notBare[key] = true
					}
				case *ast.Ident:
					// A function's own declared name is not a use of it.
					if isFunc && x == fd.Name {
						break
					}
					if !qualified[x] {
						useName(x.Name)
					}
					if !notBare[x] {
						useFunc(self + "." + x.Name)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for key, d := range declared {
		reason, allowed := uncalledAllowed[key]
		used, use := usedNames[d.method], "."+d.method
		if d.use != "" {
			used, use = usedFuncs[d.use], d.use
		}
		foreign := false // named by a test of another package
		for dir := range testUsers[use] {
			foreign = foreign || dir != d.dir
		}
		switch {
		case !used && !allowed:
			unused = append(unused, key+" ("+d.at+"): exported and named by no non-test file: delete it, call it, or allow it with a reason")
		case used && allowed:
			unused = append(unused, key+" ("+d.at+"): now named by a non-test file: drop it from the allow-list")
		case !used && reason == testOnly && !foreign:
			unused = append(unused, key+" ("+d.at+"): a test-only helper named only by its own package's tests: move it into one of their _test.go files")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Error(u)
	}
	for key := range uncalledAllowed {
		if _, ok := declared[key]; !ok {
			t.Errorf("allow-list entry %s names no exported function under internal/", key)
		}
	}
	t.Logf("%d exported functions and methods under internal/, %d allowed without a caller", len(declared), len(uncalledAllowed))
}

// funcKey names a function declaration as "<pkg>.<name>", or
// "<pkg>.<receiver type>.<name>" for a method.
func funcKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if idx, ok := recv.(*ast.IndexExpr); ok {
		recv = idx.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return pkg + "." + id.Name + "." + fd.Name.Name
	}
	return pkg + "." + fd.Name.Name
}
