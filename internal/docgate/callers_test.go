package docgate

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnly is the reason of an allowed function that only tests call. It
// holds only while a test of another package names it: one that its own
// package's tests alone name belongs in one of their _test.go files.
const testOnly = "test-only helper"

// uncalledAllowed are the exported functions and methods under internal/
// that no non-test file uses, each with the reason it stays. Keys are
// "<package dir under internal/>.<name>" or "<package dir under
// internal/>.<receiver>.<name>".
var uncalledAllowed = map[string]string{
	"gateway.Client.BlobBytes":       "Go SDK for the HTTP API: surface on purpose",
	"gateway.Client.Job":             "Go SDK for the HTTP API: surface on purpose",
	"gateway.Client.CancelJob":       "Go SDK for the HTTP API: surface on purpose",
	"gateway.Client.JobEvents":       "Go SDK for the HTTP API: surface on purpose",
	"gateway.Client.ListJobs":        "Go SDK for the HTTP API: surface on purpose",
	"gateway.Client.SubmitBatch":     "Go SDK for the HTTP API: surface on purpose",
	"gateway.IsOverloaded":           "Go SDK for the HTTP API: surface on purpose",
	"gateway.IsUnavailable":          "Go SDK for the HTTP API: surface on purpose",
	"gateway.WithMaxBlobBytes":       "Go SDK for the HTTP API: surface on purpose",
	"gateway.IsBlobTooLarge":         "Go SDK for the HTTP API: surface on purpose",
	"transport.Chaos":                "fault-injection control: surface on purpose",
	"transport.ChaosConn.Heal":       "fault-injection control: surface on purpose",
	"transport.ChaosConn.Partition":  "fault-injection control: surface on purpose",
	"transport.ChaosConn.Sends":      "fault-injection control: surface on purpose",
	"bptree.GetDirect":               "the reference lookup tests compare the Fix lookup against",
	"bench.ScaleFromEnv":             testOnly,
	"baselines/raysim.Cluster.Stats": testOnly,
	"edgelog.Replicator.Entries":     testOnly,
	"flatware.ReadFile":              "the host-side reference reader tests compare in-Fix file reads against",
	"flatware.List":                  "the host-side reference walk tests compare archive contents against",
}

// TestExportedFunctionsHaveCallers fails when an exported function or
// method declared under internal/ is used by no non-test Go file in the
// module (ROADMAP item 13: only what something uses). Uses are
// type-precise (funcUses): an identifier counts only where it resolves
// to that very function or method, so a method does not pass because
// another type has one of the same name, and a method reached only
// through an interface counts where a value of its type is converted to
// that interface. Delete such a function, give it a caller, or allow it
// above with its reason. An allowed function must still be named by some
// test: one that no Go file names at all is dead. A testOnly helper that
// no test outside its own package names fails too, since it can move
// into its package's tests.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	m, err := repo()
	if err != nil {
		t.Fatal(err)
	}
	problems, declared := callerFindings(m, uncalledAllowed)
	for _, p := range problems {
		t.Error(p)
	}
	t.Logf("%d exported functions and methods under internal/, %d allowed without a caller", declared, len(uncalledAllowed))
}

// callerFindings applies the callers gate to m with the given allow-list,
// keyed as uncalledAllowed is. It returns one line per finding, each
// starting with the function's key, and the number of functions gated.
func callerFindings(m *module, allowed map[string]string) (problems []string, declared int) {
	internal := m.path + "/internal/"
	type decl struct {
		at  string // "file:line"
		dir string // the declaring package's directory
	}
	decls := make(map[string]decl) // full key → declaration
	for _, tp := range m.pkgs {
		if !strings.HasPrefix(tp.path+"/", internal) || strings.HasSuffix(tp.path, "_test") {
			continue
		}
		for i, f := range tp.files {
			if tp.test[i] {
				continue
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					pos := m.fset.Position(fd.Pos())
					decls[objKey(tp.info.Defs[fd.Name])] = decl{at: fmt.Sprintf("%s/%s:%d", tp.dir, filepath.Base(pos.Filename), pos.Line), dir: tp.dir}
				}
			}
		}
	}
	used := make(map[string]bool)                // full key → used by a non-test file
	testDirs := make(map[string]map[string]bool) // full key → directories of the tests naming it
	m.funcUses(func(u use) {
		if _, ok := decls[u.key]; !ok {
			return
		}
		if !u.test {
			used[u.key] = true
		} else if testDirs[u.key] == nil {
			testDirs[u.key] = map[string]bool{u.dir: true}
		} else {
			testDirs[u.key][u.dir] = true
		}
	})
	for full, d := range decls {
		key := strings.TrimPrefix(full, internal)
		reason, ok := allowed[key]
		foreign := false // named by a test of another package
		for dir := range testDirs[full] {
			foreign = foreign || dir != d.dir
		}
		switch {
		case !used[full] && !ok:
			problems = append(problems, key+" ("+d.at+"): exported and used by no non-test file: delete it, call it, or allow it with a reason")
		case used[full] && ok:
			problems = append(problems, key+" ("+d.at+"): now used by a non-test file: drop it from the allow-list")
		case ok && len(testDirs[full]) == 0:
			problems = append(problems, key+" ("+d.at+"): allowed, but named by no Go file, test or not: delete it")
		case ok && reason == testOnly && !foreign:
			problems = append(problems, key+" ("+d.at+"): a test-only helper named only by its own package's tests: move it into one of their _test.go files")
		}
	}
	for key := range allowed {
		if _, ok := decls[internal+key]; !ok {
			problems = append(problems, key+": allow-list entry names no exported function under internal/")
		}
	}
	sort.Strings(problems)
	return problems, len(decls)
}
