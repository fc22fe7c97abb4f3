package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package under analysis.
type Package struct {
	// Path is the package's import path (e.g. "smthill/internal/pipeline").
	Path string
	// Dir is the package's source directory.
	Dir string
	// Fset positions every file in the package.
	Fset *token.FileSet
	// Files holds the package's non-test files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries identifier resolution and expression types for Files.
	Info *types.Info
}

// Loader parses and type-checks the module's packages using only the
// standard library: module-internal imports resolve against the module
// root, everything else (the standard library) goes through go/importer's
// source importer, which type-checks from $GOROOT/src and therefore needs
// no export data or toolchain invocation.
//
// Test files (_test.go) are excluded: the invariants smtlint enforces
// protect simulation determinism, and tests are free to use wall clocks,
// tolerances, and unsorted maps in their own scaffolding.
type Loader struct {
	root   string // module root directory (contains go.mod)
	module string // module path declared in go.mod
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*Package // completed packages by import path
	laden  map[string]bool     // imports in progress, for cycle detection
}

// NewLoader opens the module rooted at dir (the directory containing
// go.mod).
func NewLoader(root string) (*Loader, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		root:   root,
		module: mod,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*Package{},
		laden:  map[string]bool{},
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// Import implements types.Importer, letting one package's type check pull
// in the module-internal packages it depends on.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.module {
		return nil, fmt.Errorf("lint: module root %q has no package", path)
	}
	if rel, ok := strings.CutPrefix(path, l.module+"/"); ok {
		p, err := l.LoadDir(filepath.Join(l.root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// LoadDir parses and type-checks the package in dir under the given
// import path, memoising the result.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.laden[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.laden[path] = true
	defer delete(l.laden, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// parseDir parses the non-test Go files of dir in stable (sorted) order.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadAll discovers and loads every package in the module, in sorted
// import-path order. Directories named testdata, bin, or starting with
// "." or "_" are skipped, as are directories with no non-test Go files
// (such as a module root holding only _test.go files).
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || name == "bin" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	sort.Strings(dirs)

	var out []*Package
	for _, dir := range dirs {
		if !hasGoFiles(dir) {
			continue
		}
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		path := l.module
		if rel != "." {
			path = l.module + "/" + filepath.ToSlash(rel)
		}
		p, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// hasGoFiles reports whether dir contains at least one non-test Go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}
