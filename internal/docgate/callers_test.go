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
	"runtime.Engine.EvalTree":       "test-only helper",
	"cluster.Node.RingOwners":       "test-only helper",
	"objstore.Ring.Primary":         "test-only helper",
	"core.SplitInvocation":          "test-only helper",
	"durable.Store.GC":              "test-only helper",
	"bench.ScaleFromEnv":            "test-only helper",
	"whisk.Platform.ResetStats":     "test-only helper",
	"codelet.ConcatFunctionBlob":    "test-only helper",
	"flatware.ReadFile":             "the host-side reference reader tests compare in-Fix file reads against",
	"flatware.List":                 "the host-side reference walk tests compare archive contents against",
}

// TestExportedFunctionsHaveCallers fails when an exported function or
// method declared under internal/ is named by no non-test Go file in the
// module (ROADMAP item 13: only what something uses). A function counts
// as used where its package names it: as pkg.Name in a file importing
// the package, or as Name in the package itself. A method counts as used
// wherever its name appears outside its own declaration, so a method
// reached through an interface is used once the interface method is
// called. Delete such a function, give it a caller, or allow it above
// with its reason.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	usedNames := make(map[string]bool) // every identifier: a method's use
	usedFuncs := make(map[string]bool) // "<import path>.<name>": a function's use
	type decl struct {
		at     string // "file:line"
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
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
		for _, d := range f.Decls {
			fd, isFunc := d.(*ast.FuncDecl)
			if isFunc && inInternal && fd.Name.IsExported() {
				at := fmt.Sprintf("%s:%d", rel, fset.Position(fd.Pos()).Line)
				if fd.Recv == nil {
					declared[funcKey(filepath.Base(dir), fd)] = decl{at: at, use: self + "." + fd.Name.Name}
				} else {
					declared[funcKey(filepath.Base(dir), fd)] = decl{at: at, method: fd.Name.Name}
				}
			}
			notBare := make(map[*ast.Ident]bool) // selected, declared and key names
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
						usedFuncs[imports[pkg.Name]+"."+x.Sel.Name] = true
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
					usedNames[x.Name] = true
					if !notBare[x] {
						usedFuncs[self+"."+x.Name] = true
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
		_, allowed := uncalledAllowed[key]
		used := usedNames[d.method]
		if d.use != "" {
			used = usedFuncs[d.use]
		}
		switch {
		case !used && !allowed:
			unused = append(unused, key+" ("+d.at+"): exported and named by no non-test file: delete it, call it, or allow it with a reason")
		case used && allowed:
			unused = append(unused, key+" ("+d.at+"): now named by a non-test file: drop it from the allow-list")
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
