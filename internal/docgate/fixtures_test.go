package docgate

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestSurfaceGatesOnFixture runs the callers and setters gates over the
// module in testdata/surface, whose files say which of their methods and
// fields each gate must report: a dead method that shares its name with
// a live one, an allow-listed method no file names, and an option field
// set only through a same-named field of another struct or by its own
// defaulting code are reported; a method reached only through a module
// interface, flag.Value, fmt.Stringer, error or errors.Is is not.
func TestSurfaceGatesOnFixture(t *testing.T) {
	m, err := loadModule("testdata/surface")
	if err != nil {
		t.Fatal(err)
	}
	callers, _ := callerFindings(m, map[string]string{
		"lib.Chaos.Kill": "fault-injection control",
		"lib.Chaos.Heal": "fault-injection control",
	})
	checkFindings(t, "callers", callers, "lib.Chaos.Kill", "lib.Dead.Close")
	setters, _ := setterFindings(m, map[string]string{"opts": "Options"}, nil)
	checkFindings(t, "setters", setters, "opts.Options.Depth", "opts.Options.Size")
}

// checkFindings fails unless the findings name exactly the keys given.
func checkFindings(t *testing.T, gate string, findings []string, want ...string) {
	t.Helper()
	var got []string
	for _, f := range findings {
		key, _, _ := strings.Cut(f, " ")
		got = append(got, strings.TrimSuffix(key, ":"))
	}
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Errorf("%s gate on the fixture reported %q, want %q:\n%s", gate, got, want, strings.Join(findings, "\n"))
	}
}
