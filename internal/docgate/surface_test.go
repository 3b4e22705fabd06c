package docgate

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"os"
	"regexp"
	"slices"
	"sort"
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
	"daemon":  "Config",
}

// scanRoots are the trees searched for setters: the commands, the
// packages they are built from and the benchmark, test files skipped. A
// field only a test or an example sets has one value in deployment, so
// it is a constant unless testOnlyAllowed gives the reason it is not.
var scanRoots = []string{"cmd/", "internal/", "benchmark/"}

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
// setter or no longer exists. A setter is, outside the struct's own
// methods, a keyed composite-literal element, an assignment or an
// address taken (flag binding) whose field resolves, by type, to that
// struct's field: a same-named field of another struct sets nothing.
func TestOptionFieldsHaveSetters(t *testing.T) {
	m, err := repo()
	if err != nil {
		t.Fatal(err)
	}
	problems, counts := setterFindings(m, surfaceStructs, testOnlyAllowed)
	for _, p := range problems {
		t.Error(p)
	}
	for _, c := range counts {
		t.Log(c)
	}
}

// setterFindings applies the setters gate to m: structs maps a package
// directory under internal/ to its budgeted struct, allowed is keyed as
// testOnlyAllowed is. It returns one line per finding, each starting
// with the field's key, and one count line per struct.
func setterFindings(m *module, structs, allowed map[string]string) (problems, counts []string) {
	internal := m.path + "/internal/"
	exported := make(map[string]bool) // "<dir>.<struct>.<field>" → true
	for _, tp := range m.pkgs {
		dir, ok := strings.CutPrefix(tp.path, internal)
		if !ok || structs[dir] == "" {
			continue
		}
		if obj, ok := tp.types.Scope().Lookup(structs[dir]).(*types.TypeName); ok {
			if st, ok := obj.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						exported[dir+"."+structs[dir]+"."+f.Name()] = true
					}
				}
			}
		}
	}
	unset := maps.Clone(exported) // deleted from as setters are found
	// set marks the field of struct n, unless the walk is inside one of
	// n's own methods.
	set := func(n *types.Named, field string, own *types.Named) {
		if n != nil && n.Obj().Pkg() != nil && (own == nil || objKey(own.Obj()) != objKey(n.Obj())) {
			delete(unset, strings.TrimPrefix(objKey(n.Obj()), internal)+"."+field)
		}
	}
	for _, tp := range m.pkgs {
		if !slices.ContainsFunc(scanRoots, func(root string) bool { return strings.HasPrefix(tp.dir+"/", root) }) {
			continue
		}
		for i, f := range tp.files {
			if tp.test[i] {
				continue
			}
			for _, decl := range f.Decls {
				var own *types.Named // the receiver of the method being walked
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					own = named(tp.info.Defs[fd.Name].Type().(*types.Signature).Recv().Type())
				}
				field := func(e ast.Expr) {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						if s := tp.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
							set(fieldOwner(s), sel.Sel.Name, own)
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.CompositeLit:
						for _, el := range x.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if key, ok := kv.Key.(*ast.Ident); ok {
									if v, ok := tp.info.Uses[key].(*types.Var); ok && v.IsField() {
										set(named(tp.info.TypeOf(x)), key.Name, own)
									}
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range x.Lhs {
							field(lhs)
						}
					case *ast.UnaryExpr:
						if x.Op == token.AND {
							field(x.X)
						}
					}
					return true
				})
			}
		}
	}
	for key := range allowed {
		if !exported[key] {
			problems = append(problems, key+": allow-list entry names no exported field of a budgeted struct")
		} else if !unset[key] {
			problems = append(problems, key+": now has a deployment setter: drop it from the allow-list")
		}
	}
	for key := range unset {
		if _, ok := allowed[key]; !ok {
			problems = append(problems, key+": set by no command, package or benchmark: make it a constant, or allow it with a reason")
		}
	}
	var dirs []string
	for dir := range structs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		name := dir + "." + structs[dir]
		var fields, notSet int
		var allowedHere []string
		for key := range exported {
			if field, ok := strings.CutPrefix(key, name+"."); ok {
				fields++
				if unset[key] {
					notSet++
					if _, ok := allowed[key]; ok {
						allowedHere = append(allowedHere, field)
					}
				}
			}
		}
		if fields == 0 {
			problems = append(problems, name+": struct not found or has no exported fields")
		}
		sort.Strings(allowedHere)
		counts = append(counts, fmt.Sprintf("%s: %d exported fields, %d with a deployment setter, %d allow-listed %v",
			name, fields, fields-notSet, len(allowedHere), allowedHere))
	}
	sort.Strings(problems)
	return problems, counts
}

// fieldOwner returns the named struct that declares the field a field
// selection picks, following embedded fields.
func fieldOwner(s *types.Selection) *types.Named {
	t := s.Recv()
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		t = named(t).Underlying().(*types.Struct).Field(i).Type()
	}
	return named(t)
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
