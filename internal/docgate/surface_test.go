package docgate

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
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

// scanRoots are the trees searched for setters: the commands, the
// packages they are built from and the benchmark, test files skipped. A
// field only a test or an example sets has one value in deployment, so
// it is a constant unless testOnlyAllowed gives the reason it is not.
var scanRoots = []string{"../../cmd", "../../internal", "../../benchmark"}

// testOnlyAllowed are the budgeted fields no deployment sets, keyed
// "<package dir>.<struct>.<field>", each with the reason it stays an
// option.
var testOnlyAllowed = map[string]string{
	"gateway.Options.EdgeHeartbeatInterval": "edge failover tests detect a dead gateway in under a second; virtual time (ROADMAP item 9) retires it",
	"gateway.Options.EdgeHeartbeatTimeout":  "edge failover tests detect a dead gateway in under a second; virtual time (ROADMAP item 9) retires it",
	"gateway.Options.AsyncMaxAttempts":      "failover tests ride out a kill with more attempts, takeover tests dead-letter after one; virtual time (ROADMAP item 9) retires it",
	"gateway.Options.MaxBlobBytes":          "the 413 path is tested without a 64 MiB upload",
	"gateway.Options.MaxJSONBytes":          "the 413 path is tested without an 8 MiB request",
	"jobs.Options.RetainTerminal":           "retention eviction is tested without 8192 finished jobs",
	"jobs.Options.CloseGrace":               "Close's give-up path is tested without waiting out the 5 s grace",
	"edgelog.Options.AckTimeout":            "quorum-timeout tests fail an append without waiting out the 2 s default",
	"durable.Options.MaxPackBytes":          "pack rotation and GC are tested without writing a 64 MiB pack",
}

// TestOptionFieldsHaveSetters fails when an exported field of a budgeted
// configuration struct is set by no command, package or benchmark
// outside its own declaration and defaulting code and is not in
// testOnlyAllowed: such a field has one value in use and should be a
// constant. It also fails when an allowed field gained a deployment
// setter or no longer exists. A setter is a keyed composite-literal
// element of the struct's type, or — in a file that is in or imports the
// struct's package and outside the struct's own methods — an assignment
// to, or an address taken of (flag binding), a selector of that field
// name.
func TestOptionFieldsHaveSetters(t *testing.T) {
	exported := make(map[string]map[string]bool) // package dir → field → true
	unset := make(map[string]map[string]bool)    // package dir → field → no deployment setter yet
	for dir, name := range surfaceStructs {
		exported[dir] = structFields(t, filepath.Join("../../internal", dir), name)
		if len(exported[dir]) == 0 {
			t.Fatalf("internal/%s: struct %s not found or has no exported fields", dir, name)
		}
		unset[dir] = maps.Clone(exported[dir])
	}
	for _, root := range scanRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			markSetters(t, path, unset)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for key := range testOnlyAllowed {
		parts := strings.Split(key, ".")
		if len(parts) != 3 || surfaceStructs[parts[0]] != parts[1] || !exported[parts[0]][parts[2]] {
			t.Errorf("allow-list entry %s names no exported field of a budgeted struct", key)
		} else if !unset[parts[0]][parts[2]] {
			t.Errorf("%s now has a deployment setter: drop it from the allow-list", key)
		}
	}
	var dirs []string
	for dir := range surfaceStructs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		var fields, allowed []string
		for f := range unset[dir] {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		for _, f := range fields {
			key := dir + "." + surfaceStructs[dir] + "." + f
			if _, ok := testOnlyAllowed[key]; ok {
				allowed = append(allowed, f)
			} else {
				t.Errorf("%s is set by no command, package or benchmark: make it a constant, or allow it with a reason", key)
			}
		}
		t.Logf("%s.%s: %d exported fields, %d with a deployment setter, %d allow-listed %v",
			dir, surfaceStructs[dir], len(exported[dir]), len(exported[dir])-len(fields), len(allowed), allowed)
	}
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
