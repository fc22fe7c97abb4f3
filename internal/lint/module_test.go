package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// writeTempModule lays out a small module under a temporary root: a
// (one float-compare finding), c (clean), and a main package calling
// both, so every function has a caller and the default rules report
// exactly the comparison in a. extra adds or overrides files, keyed by
// root-relative path.
func writeTempModule(t *testing.T, extra map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"a/a.go": `package a

// Eq is a deliberate float-compare violation.
func Eq(x, y float64) bool { return x == y }
`,
		"c/c.go": `package c

// N is clean.
func N() int { return 3 }
`,
		"cmd/main.go": `package main

import (
	"tmpmod/a"
	"tmpmod/c"
)

func main() { println(a.Eq(1, 2), c.N()) }
`,
	}
	for name, src := range extra {
		files[name] = src
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func lintTemp(t *testing.T, root string) []Finding {
	t.Helper()
	got, err := Module(root, DefaultRules())
	if err != nil {
		t.Fatalf("Module: %v", err)
	}
	return got
}

func TestModuleFindingsAreRootRelative(t *testing.T) {
	got := lintTemp(t, writeTempModule(t, nil))
	if len(got) != 1 || got[0].Rule != "float-compare" {
		t.Fatalf("findings = %v, want exactly the float-compare in a", got)
	}
	if name := got[0].Pos.Filename; name != "a/a.go" {
		t.Fatalf("finding path %q is not root-relative", name)
	}
}

// TestModuleAuditsStaleIgnores: a directive naming the wrong rule
// suppresses nothing, so it surfaces as an unusedignore finding and the
// comparison under it still fails.
func TestModuleAuditsStaleIgnores(t *testing.T) {
	root := writeTempModule(t, map[string]string{
		"d/d.go": `package d

// Cmp carries a directive naming the wrong rule.
func Cmp(x, y float64) bool {
	return x == y //smtlint:ignore nondeterminism wrong rule on purpose
}
`,
	})
	var stale, float int
	for _, f := range lintTemp(t, root) {
		switch f.Rule {
		case "unusedignore":
			stale++
		case "float-compare":
			float++
		}
	}
	if stale != 1 || float != 2 {
		t.Fatalf("want 1 unusedignore + 2 float-compare, got %d + %d", stale, float)
	}
}
