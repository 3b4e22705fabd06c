package docgate

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// gatedPackages are the packages whose exported surface must be fully
// documented: the serving tier, the distributed layers (cluster, object
// placement, wire transport, persistence) this repo grows PR over PR,
// and the daemons' shared boot path; the rest of the tree is audited by
// review, not mechanically.
var gatedPackages = []string{
	"../../internal/jobs",
	"../../internal/gateway",
	"../../internal/edgelog",
	"../../internal/cluster",
	"../../internal/objstore",
	"../../internal/transport",
	"../../internal/durable",
	"../../internal/obsv",
	"../../internal/storage",
	"../../internal/daemon",
}

// TestExportedIdentifiersDocumented fails on any exported top-level
// declaration — func, method, type, const, or var — without a doc
// comment, the same contract as revive's `exported` rule.
func TestExportedIdentifiersDocumented(t *testing.T) {
	for _, dir := range gatedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				checkFile(t, fset, f)
			}
		}
	}
}

func checkFile(t *testing.T, fset *token.FileSet, f *ast.File) {
	t.Helper()
	undocumented := func(node ast.Node, name string) {
		t.Errorf("%s: exported %s has no doc comment", fset.Position(node.Pos()), name)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv != nil && !exportedReceiver(d.Recv) {
				continue
			}
			if d.Doc == nil {
				undocumented(d, funcName(d))
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
						undocumented(sp, "type "+sp.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						// A group doc ("// Errors reported by …") covers
						// every spec in the block; otherwise each spec
						// needs its own doc or trailing comment.
						if n.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
							undocumented(n, n.Name)
						}
					}
				}
			}
		}
	}
}

// exportedReceiver reports whether a method's receiver type is exported
// (methods on unexported types are internal API).
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr: // generic receiver
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return "func " + d.Name.Name
	}
	return "method " + d.Name.Name
}

// gatedDocs are the markdown files whose relative links must resolve.
var gatedDocs = []string{
	"../../README.md",
	"../../ARCHITECTURE.md",
	"../../BENCHMARKS.md",
	"../../OPERATIONS.md",
}

// gatedBenchIDs are the experiments whose BENCH_<id>.json emission must
// be committed at the repo root and parse against the documented schema
// (BENCHMARKS.md §JSON schema). Adding an experiment without committing
// its JSON — or drifting the schema without updating the docs and this
// gate — fails CI. Serving numbers live in benchmark/ (BENCHMARK.json),
// not here.
var gatedBenchIDs = []string{"fig7a", "fig7b", "fig8a", "fig8b", "fig9", "fig10"}

// benchResult mirrors bench.JSONResult field for field; decoding with
// DisallowUnknownFields makes this test fail when the emitted schema
// gains fields the documentation does not know about.
type benchResult struct {
	ID    string     `json:"id"`
	Title string     `json:"title"`
	Rows  []benchRow `json:"rows"`
	Notes []string   `json:"notes,omitempty"`
}

type benchRow struct {
	System     string `json:"system"`
	MeasuredNS int64  `json:"measured_ns"`
	PaperNS    int64  `json:"paper_ns,omitempty"`
	Detail     string `json:"detail,omitempty"`
}

// TestBenchJSONSchema fails when a committed BENCH_<id>.json is missing,
// unparseable, schema-drifted, or self-inconsistent (wrong id, empty
// rows, empty system names, non-positive measurements), and when a root
// BENCH_*.json belongs to no gated experiment (a retired experiment's
// emission left behind).
func TestBenchJSONSchema(t *testing.T) {
	committed, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range committed {
		id := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		if !slices.Contains(gatedBenchIDs, id) {
			t.Errorf("%s: orphan emission, %q is not a gated experiment", filepath.Base(path), id)
		}
	}
	for _, id := range gatedBenchIDs {
		path := filepath.Join("../..", "BENCH_"+id+".json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("required bench emission missing: %v", err)
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var res benchResult
		if err := dec.Decode(&res); err != nil {
			t.Errorf("BENCH_%s.json: schema violation: %v", id, err)
			continue
		}
		if res.ID != id {
			t.Errorf("BENCH_%s.json: id = %q, want %q", id, res.ID, id)
		}
		if res.Title == "" {
			t.Errorf("BENCH_%s.json: empty title", id)
		}
		if len(res.Rows) == 0 {
			t.Errorf("BENCH_%s.json: no rows", id)
		}
		for i, row := range res.Rows {
			if row.System == "" {
				t.Errorf("BENCH_%s.json: row %d has no system", id, i)
			}
			if row.MeasuredNS <= 0 {
				t.Errorf("BENCH_%s.json: row %d (%s) measured_ns = %d", id, i, row.System, row.MeasuredNS)
			}
		}
	}
}

// mdLink matches [text](target) markdown links.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownLinksResolve fails when a doc links a local file that
// does not exist (external URLs and pure anchors are skipped; a
// missing gated doc itself is also a failure).
func TestMarkdownLinksResolve(t *testing.T) {
	for _, doc := range gatedDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("required doc missing: %v", err)
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			// Strip a trailing #anchor from a file link.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(doc), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q: %v", filepath.Base(doc), m[1], err)
			}
		}
	}
}
