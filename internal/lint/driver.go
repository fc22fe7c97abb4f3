package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The driver is smtlint's incremental runner: it hashes every package's
// source (plus the transitive intra-module imports and the rule-set
// fingerprint) before loading anything, reuses cached findings for
// packages whose key is unchanged, and only parses and type-checks the
// rest. A warm run over an unchanged tree never invokes go/types at all
// — the expensive part of a zero-dependency analyzer is type-checking
// the standard library from source, and the cache skips it entirely.
//
// Cache layout: one JSON entry per package (findings, ignore directives,
// and the set of directives that suppressed something) keyed by the
// package hash, plus one module-wide entry for ModuleRule findings keyed
// by the hash of every package. Findings are stored with paths relative
// to the module root, so the cache survives a checkout move. The
// unusedignore audit is assembled from the cached directive and used
// sets, so it stays exact across any mix of cached and fresh packages.

// cacheSchemaVersion invalidates every cache entry when the rule
// implementations change behavior; bump it alongside rule changes.
const cacheSchemaVersion = "smtlint-cache-v2"

// DriverOptions configures a Drive run.
type DriverOptions struct {
	// Root is the module root (the directory holding go.mod).
	Root string
	// CacheDir enables per-package result caching when non-empty.
	CacheDir string
	// Rules is the rule set; nil selects DefaultRules.
	Rules []Rule
}

// DriverStats reports cache effectiveness.
type DriverStats struct {
	// Packages is the number of packages considered.
	Packages int `json:"packages"`
	// CacheHits counts packages whose findings came from the cache.
	CacheHits int `json:"cache_hits"`
	// Analyzed counts packages parsed and type-checked this run.
	Analyzed int `json:"analyzed"`
	// ModuleHit reports whether the module-wide rules were cached.
	ModuleHit bool `json:"module_hit"`
}

// DriverResult is a Drive run's outcome.
type DriverResult struct {
	// Findings is the sorted, ignore-filtered finding list — per-package
	// rules, module rules, and the unusedignore audit — with filenames
	// relative to the module root.
	Findings []Finding
	// Stats reports cache effectiveness.
	Stats DriverStats
}

// pkgEntry is one package's cached analysis.
type pkgEntry struct {
	Key        string        `json:"key"`
	Findings   []jsonFinding `json:"findings"`
	Directives []Directive   `json:"directives"`
	Used       []string      `json:"used"`
}

// modEntry is the module-wide rules' cached analysis.
type modEntry struct {
	Key      string        `json:"key"`
	Findings []jsonFinding `json:"findings"`
	Used     []string      `json:"used"`
}

// jsonFinding is Finding's stable serialized form (also used by -json
// output and baselines).
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func toJSONFindings(fs []Finding) []jsonFinding {
	out := make([]jsonFinding, len(fs))
	for i, f := range fs {
		out[i] = jsonFinding{File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column, Rule: f.Rule, Msg: f.Msg}
	}
	return out
}

func fromJSONFindings(js []jsonFinding) []Finding {
	out := make([]Finding, len(js))
	for i, j := range js {
		out[i] = Finding{Pos: token.Position{Filename: j.File, Line: j.Line, Column: j.Col}, Rule: j.Rule, Msg: j.Msg}
	}
	return out
}

// drvPkg is one discovered package directory.
type drvPkg struct {
	dir  string // absolute
	path string // import path
	key  string // content hash (files + deps + rules fingerprint)
}

// Drive runs the rule set over the module rooted at opts.Root with
// incremental caching.
func Drive(opts DriverOptions) (*DriverResult, error) {
	rules := opts.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	module, err := modulePath(filepath.Join(opts.Root, "go.mod"))
	if err != nil {
		return nil, err
	}
	pkgList, err := discoverPackages(opts.Root, module)
	if err != nil {
		return nil, err
	}
	if err := hashPackages(opts.Root, module, rules, pkgList); err != nil {
		return nil, err
	}
	moduleKey := moduleHash(pkgList)

	res := &DriverResult{Stats: DriverStats{Packages: len(pkgList)}}

	// Phase 1: probe the cache.
	entries := make([]*pkgEntry, len(pkgList))
	var modCached *modEntry
	if opts.CacheDir != "" {
		for i, pk := range pkgList {
			if e := readPkgEntry(opts.CacheDir, pk.path); e != nil && e.Key == pk.key {
				entries[i] = e
			}
		}
		if e := readModEntry(opts.CacheDir); e != nil && e.Key == moduleKey {
			modCached = e
		}
	}

	// Phase 2: analyze what missed. Any miss loads the whole module —
	// module rules and cross-package imports need full type information
	// anyway — but only missed packages re-run the per-package rules.
	needLoad := modCached == nil
	for _, e := range entries {
		if e == nil {
			needLoad = true
		}
	}
	if needLoad {
		loader, err := NewLoader(opts.Root)
		if err != nil {
			return nil, err
		}
		pkgs, err := loader.LoadAll()
		if err != nil {
			return nil, err
		}
		byPath := map[string]*Package{}
		for _, p := range pkgs {
			byPath[p.Path] = p
		}
		for i, pk := range pkgList {
			if entries[i] != nil {
				res.Stats.CacheHits++
				continue
			}
			p, ok := byPath[pk.path]
			if !ok {
				return nil, fmt.Errorf("lint: discovered package %s not loaded", pk.path)
			}
			used := map[string]bool{}
			findings, dirs := CheckPackage(rules, p, used)
			entries[i] = &pkgEntry{
				Key:        pk.key,
				Findings:   toJSONFindings(relativized(findings, opts.Root)),
				Directives: relativizedDirs(dirs, opts.Root),
				Used:       relativizedKeys(used, opts.Root),
			}
			res.Stats.Analyzed++
			if opts.CacheDir != "" {
				writePkgEntry(opts.CacheDir, pk.path, entries[i])
			}
		}
		if modCached == nil {
			used := map[string]bool{}
			findings := CheckModuleRules(rules, pkgs, used)
			modCached = &modEntry{
				Key:      moduleKey,
				Findings: toJSONFindings(relativized(findings, opts.Root)),
				Used:     relativizedKeys(used, opts.Root),
			}
			if opts.CacheDir != "" {
				writeModEntry(opts.CacheDir, modCached)
			}
		} else {
			res.Stats.ModuleHit = true
		}
	} else {
		res.Stats.CacheHits = len(pkgList)
		res.Stats.ModuleHit = true
	}

	// Phase 3: assemble findings plus the unusedignore audit from the
	// per-entry directive and used sets.
	usedAll := map[string]bool{}
	var allDirs []Directive
	var findings []Finding
	for _, e := range entries {
		findings = append(findings, fromJSONFindings(e.Findings)...)
		allDirs = append(allDirs, e.Directives...)
		for _, k := range e.Used {
			usedAll[k] = true
		}
	}
	findings = append(findings, fromJSONFindings(modCached.Findings)...)
	for _, k := range modCached.Used {
		usedAll[k] = true
	}
	findings = append(findings, StaleDirectives(allDirs, usedAll)...)
	SortFindings(findings)
	res.Findings = findings
	return res, nil
}

// relativized rewrites finding filenames relative to root.
func relativized(fs []Finding, root string) []Finding {
	out := make([]Finding, len(fs))
	for i, f := range fs {
		if rel, err := filepath.Rel(root, f.Pos.Filename); err == nil {
			f.Pos.Filename = filepath.ToSlash(rel)
		}
		out[i] = f
	}
	return out
}

// relativizedDirs rewrites directive filenames relative to root.
func relativizedDirs(dirs []Directive, root string) []Directive {
	out := make([]Directive, len(dirs))
	for i, d := range dirs {
		if rel, err := filepath.Rel(root, d.File); err == nil {
			d.File = filepath.ToSlash(rel)
		}
		out[i] = d
	}
	return out
}

// relativizedKeys rewrites used-directive keys ("file:line:rule") with
// root-relative filenames, sorted for stable cache bytes.
func relativizedKeys(used map[string]bool, root string) []string {
	out := make([]string, 0, len(used))
	for k := range used {
		// The filename may itself contain colons on exotic systems; the
		// line and rule are the last two ":"-separated fields.
		i := strings.LastIndex(k, ":")
		j := strings.LastIndex(k[:i], ":")
		file, rest := k[:j], k[j+1:]
		if rel, err := filepath.Rel(root, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		out = append(out, file+":"+rest)
	}
	sort.Strings(out)
	return out
}

// discoverPackages finds the module's package directories without
// parsing: the same skip rules as Loader.LoadAll (testdata, bin,
// dot/underscore directories, directories with no non-test Go files).
func discoverPackages(root, module string) ([]*drvPkg, error) {
	var out []*drvPkg
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "bin" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if !hasGoFiles(path) {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ip := module
		if rel != "." {
			ip = module + "/" + filepath.ToSlash(rel)
		}
		out = append(out, &drvPkg{dir: path, path: ip})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out, nil
}

// hashPackages computes each package's cache key: a hash of its file
// contents, the keys of its intra-module imports (transitively, via
// recursion), and the rule-set fingerprint. Imports are read with
// ImportsOnly parsing — no type-checking happens before cache probing.
func hashPackages(root, module string, rules []Rule, pkgs []*drvPkg) error {
	byPath := map[string]*drvPkg{}
	for _, pk := range pkgs {
		byPath[pk.path] = pk
	}
	fp := rulesFingerprint(rules)
	fset := token.NewFileSet()

	var keyOf func(pk *drvPkg, stack map[string]bool) (string, error)
	keyOf = func(pk *drvPkg, stack map[string]bool) (string, error) {
		if pk.key != "" {
			return pk.key, nil
		}
		if stack[pk.path] {
			return "", fmt.Errorf("lint: import cycle through %q", pk.path)
		}
		stack[pk.path] = true
		defer delete(stack, pk.path)

		entries, err := os.ReadDir(pk.dir)
		if err != nil {
			return "", fmt.Errorf("lint: %w", err)
		}
		var names []string
		for _, e := range entries {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			names = append(names, n)
		}
		sort.Strings(names)

		h := sha256.New()
		fmt.Fprintf(h, "%s\n%s\n", fp, pk.path)
		depSet := map[string]bool{}
		for _, n := range names {
			full := filepath.Join(pk.dir, n)
			b, err := os.ReadFile(full)
			if err != nil {
				return "", fmt.Errorf("lint: %w", err)
			}
			fmt.Fprintf(h, "file %s %d\n", n, len(b))
			h.Write(b)
			f, err := parser.ParseFile(fset, full, b, parser.ImportsOnly)
			if err != nil {
				return "", fmt.Errorf("lint: %w", err)
			}
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if ip == module || strings.HasPrefix(ip, module+"/") {
					depSet[ip] = true
				}
			}
		}
		deps := make([]string, 0, len(depSet))
		for d := range depSet {
			deps = append(deps, d)
		}
		sort.Strings(deps)
		for _, d := range deps {
			dep, ok := byPath[d]
			if !ok {
				// An import of a package outside the discovered set
				// (deleted or skipped); key on the name alone.
				fmt.Fprintf(h, "dep %s missing\n", d)
				continue
			}
			dk, err := keyOf(dep, stack)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(h, "dep %s %s\n", d, dk)
		}
		pk.key = hex.EncodeToString(h.Sum(nil))
		return pk.key, nil
	}
	for _, pk := range pkgs {
		if _, err := keyOf(pk, map[string]bool{}); err != nil {
			return err
		}
	}
	return nil
}

// moduleHash keys the module-wide analysis off every package's key.
func moduleHash(pkgs []*drvPkg) string {
	h := sha256.New()
	for _, pk := range pkgs {
		fmt.Fprintf(h, "%s %s\n", pk.path, pk.key)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rulesFingerprint identifies the active rule set in cache keys.
func rulesFingerprint(rules []Rule) string {
	names := make([]string, 0, len(rules))
	for _, r := range rules {
		names = append(names, r.Name())
	}
	sort.Strings(names)
	return cacheSchemaVersion + ":" + strings.Join(names, ",")
}

// cacheFileName sanitizes an import path into a cache file name.
func cacheFileName(importPath string) string {
	return strings.ReplaceAll(importPath, "/", "__") + ".json"
}

func readPkgEntry(cacheDir, importPath string) *pkgEntry {
	b, err := os.ReadFile(filepath.Join(cacheDir, cacheFileName(importPath)))
	if err != nil {
		return nil
	}
	var e pkgEntry
	if json.Unmarshal(b, &e) != nil {
		return nil
	}
	return &e
}

func writePkgEntry(cacheDir, importPath string, e *pkgEntry) {
	// Cache writes are best-effort: a read-only cache dir degrades to a
	// cold run, never to an error.
	if os.MkdirAll(cacheDir, 0o755) != nil {
		return
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return
	}
	_ = os.WriteFile(filepath.Join(cacheDir, cacheFileName(importPath)), b, 0o644)
}

func readModEntry(cacheDir string) *modEntry {
	b, err := os.ReadFile(filepath.Join(cacheDir, "__module__.json"))
	if err != nil {
		return nil
	}
	var e modEntry
	if json.Unmarshal(b, &e) != nil {
		return nil
	}
	return &e
}

func writeModEntry(cacheDir string, e *modEntry) {
	if os.MkdirAll(cacheDir, 0o755) != nil {
		return
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return
	}
	_ = os.WriteFile(filepath.Join(cacheDir, "__module__.json"), b, 0o644)
}
