package docgate

import (
	"os"
	"sort"
	"strings"
	"testing"
)

// TestPackageImportsMatchArchitecture fails when the in-module imports of
// a package, outside its tests, differ from the Imports column of
// ARCHITECTURE.md's package map in either direction, or when a package
// has no row or a row names no package. A row's first cell is the
// package directory relative to the module root; its Imports cell lists
// the imported packages relative to internal/ (others relative to the
// module root), or "—" for none.
func TestPackageImportsMatchArchitecture(t *testing.T) {
	m, err := repo()
	if err != nil {
		t.Fatal(err)
	}
	arch, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := packageMap(t, string(arch))
	var dirs []string
	for path := range m.listed {
		dirs = append(dirs, relDir(m.path, path))
	}
	for dir := range documented {
		if _, ok := m.listed[absPath(m.path, dir)]; !ok {
			t.Errorf("ARCHITECTURE.md package map: row %s names no package in the module", dir)
		}
	}
	sort.Strings(dirs)
	edges := 0
	for _, dir := range dirs {
		doc, ok := documented[dir]
		if !ok {
			t.Errorf("ARCHITECTURE.md package map: no row for %s", dir)
			continue
		}
		actual := make(map[string]bool)
		for _, imp := range m.listed[absPath(m.path, dir)].Imports {
			if imp == m.path || strings.HasPrefix(imp, m.path+"/") {
				actual[importName(m.path, imp)] = true
			}
		}
		edges += len(actual)
		for imp := range actual {
			if !doc[imp] {
				t.Errorf("%s imports %s, which its ARCHITECTURE.md row does not list", dir, imp)
			}
		}
		for imp := range doc {
			if !actual[imp] {
				t.Errorf("%s: its ARCHITECTURE.md row lists %s, which it does not import", dir, imp)
			}
		}
	}
	t.Logf("%d packages, %d in-module imports pinned", len(dirs), edges)
}

// TestDaemonsLinkNoSimulators fails when cmd/fixpoint or cmd/fixgate
// links a package under internal/baselines or internal/bench: the
// daemons run the platform, not the simulated systems it is compared
// with.
func TestDaemonsLinkNoSimulators(t *testing.T) {
	m, err := repo()
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"cmd/fixpoint", "cmd/fixgate"} {
		p := m.listed[absPath(m.path, cmd)]
		if p == nil {
			t.Fatalf("%s: not in the module", cmd)
		}
		own := 0
		for _, dep := range p.Deps {
			if !strings.HasPrefix(dep, m.path+"/") {
				continue
			}
			own++
			for _, banned := range []string{"internal/baselines", "internal/bench"} {
				if b := absPath(m.path, banned); dep == b || strings.HasPrefix(dep, b+"/") {
					t.Errorf("%s links %s", cmd, dep)
				}
			}
		}
		t.Logf("%s links %d in-module packages", cmd, own)
	}
}

// packageMap reads the Imports column of every table in the package map
// section: package directory → imported packages.
func packageMap(t *testing.T, arch string) map[string]map[string]bool {
	t.Helper()
	_, section, ok := strings.Cut(arch, "\n## Package map\n")
	if !ok {
		t.Fatal("ARCHITECTURE.md: no package map section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := make(map[string]map[string]bool)
	col := -1 // the Imports column of the current table
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			col = -1
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		switch {
		case cells[0] == "Package":
			col = -1
			for i, c := range cells {
				if c == "Imports" {
					col = i
				}
			}
			if col < 0 {
				t.Errorf("ARCHITECTURE.md package map: a table has no Imports column: %s", line)
			}
		case strings.HasPrefix(cells[0], "---") || col < 0:
		case len(cells) <= col || strings.Count(cells[0], "`") != 2:
			t.Errorf("ARCHITECTURE.md package map: want one package and an Imports cell per row: %s", line)
		default:
			dir := strings.Trim(cells[0], "`")
			if rows[dir] != nil {
				t.Errorf("ARCHITECTURE.md package map: two rows for %s", dir)
			}
			rows[dir] = make(map[string]bool)
			if cells[col] != "—" {
				for _, imp := range strings.Split(cells[col], ",") {
					rows[dir][strings.Trim(strings.TrimSpace(imp), "`")] = true
				}
			}
		}
	}
	return rows
}

// relDir is an in-module import path's directory relative to the module
// root, "." for the root.
func relDir(module, path string) string {
	if path == module {
		return "."
	}
	return strings.TrimPrefix(path, module+"/")
}

// absPath is the import path of a directory relative to the module root.
func absPath(module, dir string) string {
	if dir == "." {
		return module
	}
	return module + "/" + dir
}

// importName is how an Imports cell names an in-module import path:
// relative to internal/ for a package under it, else to the module root.
func importName(module, path string) string {
	if name, ok := strings.CutPrefix(path, module+"/internal/"); ok {
		return name
	}
	return relDir(module, path)
}
