// Command smtlint enforces the project's determinism, instrumentation,
// concurrency-correctness and dead-code invariants with a
// zero-dependency static analysis built on the standard library's
// go/ast, go/parser, and go/types (see internal/lint for the rules and
// their rationale).
//
// Usage:
//
//	smtlint ./...   # lint every package in the module
//	smtlint -rules  # list the rules and what they enforce
//
// Every run loads and type-checks the whole module afresh; there is no
// result cache to go stale. Stale //smtlint:ignore directives are
// themselves findings (rule "unusedignore").
//
// Exit status: 0 with no findings, 1 with findings, 2 on usage or load
// errors. Findings print as file:line:col: rule: message, with paths
// relative to the module root.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"smthill/internal/lint"
)

func main() {
	listRules := flag.Bool("rules", false, "list the lint rules and exit")
	flag.Parse()

	rules := lint.DefaultRules()
	if *listRules {
		for _, r := range rules {
			fmt.Printf("%-16s %s\n", r.Name(), r.Doc())
		}
		fmt.Printf("%-16s %s\n", "unusedignore", "//smtlint:ignore directives that suppress nothing are findings themselves")
		return
	}

	// The only supported scope is the whole module: the rules are
	// project invariants, and partial runs would let violations hide in
	// unlinted packages. "./..." (or nothing) is accepted for familiarity.
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "all" {
			fmt.Fprintf(os.Stderr, "smtlint: unsupported pattern %q (smtlint always lints the whole module; use ./...)\n", arg)
			os.Exit(2)
		}
	}

	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	findings, err := lint.Module(root, rules)
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "smtlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smtlint:", err)
	os.Exit(2)
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
