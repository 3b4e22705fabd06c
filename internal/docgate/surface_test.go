package docgate

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fixgo/internal/daemon"
)

// surfaceStructs are the configuration structs under the surface budget
// (ROADMAP item 13), keyed by their package directory under internal/.
var surfaceStructs = map[string]string{
	"gateway": "Options",
	"cluster": "NodeOptions",
	"runtime": "Options",
	"jobs":    "Options",
	"edgelog": "Options",
	"durable": "Options",
	"storage": "Config",
	"daemon":  "Config",
}

// scanRoots are the trees searched for setters, tests included: a field
// only a test sets still earns its place (it keeps that test fast).
var scanRoots = []string{"../../cmd", "../../internal", "../../benchmark", "../../examples"}

// TestOptionFieldsHaveSetters fails when an exported field of a budgeted
// configuration struct is set nowhere outside its own declaration and
// defaulting code: such a field has one value in use and should be a
// constant. A setter is a keyed composite-literal element of the struct's
// type, or — in a file that is in or imports the struct's package and
// outside the struct's own methods — an assignment to, or an address
// taken of (flag binding), a selector of that field name.
func TestOptionFieldsHaveSetters(t *testing.T) {
	unset := make(map[string]map[string]bool) // package dir → field → still unset
	for dir, name := range surfaceStructs {
		unset[dir] = structFields(t, filepath.Join("../../internal", dir), name)
		if len(unset[dir]) == 0 {
			t.Fatalf("internal/%s: struct %s not found or has no exported fields", dir, name)
		}
	}
	var counts []string
	for dir, fields := range unset {
		counts = append(counts, fmt.Sprintf("%s.%s=%d", dir, surfaceStructs[dir], len(fields)))
	}
	sort.Strings(counts)
	for _, root := range scanRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			markSetters(t, path, unset)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for dir, fields := range unset {
		for f := range fields {
			t.Errorf("%s.%s.%s is set by no command, benchmark, example or test: make it a constant", dir, surfaceStructs[dir], f)
		}
	}
	t.Logf("exported fields: %s", strings.Join(counts, " "))
}

// structFields returns the exported field names of struct name declared
// in the (non-test) package at dir.
func structFields(t *testing.T, dir, name string) map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	fields := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							if id.IsExported() {
								fields[id.Name] = true
							}
						}
					}
				}
				return false
			})
		}
	}
	return fields
}

// markSetters deletes from unset every field the file at path sets.
func markSetters(t *testing.T, path string, unset map[string]map[string]bool) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	// local maps the name a budgeted package goes by in this file to its
	// directory; "" is the file's own package.
	local := make(map[string]string)
	if dir := filepath.Base(filepath.Dir(path)); surfaceStructs[dir] != "" && strings.Contains(filepath.ToSlash(path), "internal/"+dir+"/") {
		local[""] = dir
	}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		dir, ok := strings.CutPrefix(p, "fixgo/internal/")
		if !ok || surfaceStructs[dir] == "" {
			continue
		}
		name := dir
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[name] = dir
	}
	if len(local) == 0 {
		return
	}
	structOf := func(e ast.Expr) string { // the budgeted package dir e names a struct of, or ""
		switch x := e.(type) {
		case *ast.Ident:
			if dir, ok := local[""]; ok && x.Name == surfaceStructs[dir] {
				return dir
			}
		case *ast.SelectorExpr:
			if pkg, ok := x.X.(*ast.Ident); ok {
				if dir, ok := local[pkg.Name]; ok && x.Sel.Name == surfaceStructs[dir] {
					return dir
				}
			}
		}
		return ""
	}
	own := "" // the struct whose method is being walked: its defaulting code sets nothing
	markField := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			for _, dir := range local {
				if dir != own {
					delete(unset[dir], sel.Sel.Name)
				}
			}
		}
	}
	for _, decl := range f.Decls {
		own = ""
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List) == 1 {
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			own = structOf(recv)
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				if dir := structOf(x.Type); dir != "" && dir != own {
					for _, el := range x.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								delete(unset[dir], key.Name)
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					markField(lhs)
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					markField(x.X)
				}
			}
			return true
		})
	}
}

// flagRow matches one row of README's daemon flag table:
// | `-name` | fixgate default | fixpoint default | meaning |
var flagRow = regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\| ([^|]*) \\| ([^|]*) \\|")

// TestFlagTableMatchesDaemon fails when README's flag table and the
// flags internal/daemon binds differ in name or default. A daemon that
// lacks a flag shows — in its column; an empty default shows `""`.
func TestFlagTableMatchesDaemon(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]map[string]string{daemon.Fixgate: {}, daemon.Fixpoint: {}}
	for _, m := range flagRow.FindAllStringSubmatch(string(readme), -1) {
		for i, name := range []string{daemon.Fixgate, daemon.Fixpoint} {
			if cell := strings.TrimSpace(m[2+i]); cell != "—" {
				documented[name][m[1]] = strings.Trim(cell, "`")
			}
		}
	}
	for name, doc := range documented {
		bound := make(map[string]string)
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		daemon.Bind(fs, name)
		fs.VisitAll(func(f *flag.Flag) {
			def := f.DefValue
			if def == "" {
				def = `""`
			}
			bound[f.Name] = def
		})
		var names []string
		for n := range bound {
			names = append(names, n)
		}
		for n := range doc {
			if _, ok := bound[n]; !ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			if doc[n] != bound[n] {
				t.Errorf("%s -%s: README default %q, internal/daemon binds %q (\"\" on either side: the flag is missing there)", name, n, doc[n], bound[n])
			}
		}
	}
}
