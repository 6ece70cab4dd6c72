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

// Package is one directory of non-test Go files, parsed and fully
// type-checked. Analyzers receive it through Pass.
type Package struct {
	Dir        string // absolute directory
	ImportPath string // module path + relative dir
	Name       string // package clause name
	Files      []*ast.File
	Filenames  []string // parallel to Files, absolute
	Types      *types.Package
	Info       *types.Info
}

// loader walks a module root, parses every package and type-checks them
// in dependency order. Module-internal imports resolve to the loader's
// own checked packages; everything else (the standard library) falls
// back to the source importer so the tool works without compiled export
// data and without module dependencies.
type loader struct {
	fset    *token.FileSet
	root    string
	modpath string
	pkgs    map[string]*Package // by import path
	std     types.Importer
	checked map[string]bool
	stack   []string // for cycle reporting
}

// LoadModule parses and type-checks every package of the module rooted
// at root (the directory containing go.mod). Test files (_test.go) and
// testdata/vendor directories are skipped: the contracts the analyzers
// enforce protect production determinism, and tests legitimately poke at
// clocks and goroutines. Packages come back sorted by import path.
func LoadModule(fset *token.FileSet, root string) ([]*Package, string, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, "", err
	}
	modpath, err := modulePath(filepath.Join(absRoot, "go.mod"))
	if err != nil {
		return nil, "", err
	}
	ld := &loader{
		fset:    fset,
		root:    absRoot,
		modpath: modpath,
		pkgs:    make(map[string]*Package),
		std:     importer.ForCompiler(fset, "source", nil),
		checked: make(map[string]bool),
	}
	if err := walkPackageDirs(ld.root, ld.parseDir); err != nil {
		return nil, "", err
	}
	paths := make([]string, 0, len(ld.pkgs))
	for p := range ld.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := ld.check(p); err != nil {
			return nil, "", err
		}
	}
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		out = append(out, ld.pkgs[p])
	}
	return out, modpath, nil
}

// modulePath extracts the module path from a go.mod without pulling in
// any module-file parser dependency.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			mod := strings.TrimSpace(rest)
			mod = strings.Trim(mod, `"`)
			if mod != "" {
				return mod, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// walkPackageDirs calls fn on root and every directory below it that may
// hold module packages (testdata, vendor and dot/underscore directories
// are skipped).
func walkPackageDirs(root string, fn func(dir string) error) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		return fn(path)
	})
}

// parseDir parses the non-test Go files of one directory into a Package
// (no-op for directories without Go files).
func (ld *loader) parseDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") ||
			strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		full := filepath.Join(dir, n)
		f, err := parser.ParseFile(ld.fset, full, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
		names = append(names, full)
	}
	if len(files) == 0 {
		return nil
	}
	rel, err := filepath.Rel(ld.root, dir)
	if err != nil {
		return err
	}
	ip := ld.modpath
	if rel != "." {
		ip = ld.modpath + "/" + filepath.ToSlash(rel)
	}
	ld.pkgs[ip] = &Package{
		Dir:        dir,
		ImportPath: ip,
		Name:       files[0].Name.Name,
		Files:      files,
		Filenames:  names,
	}
	return nil
}

// check type-checks the package at path, first checking its
// module-internal dependencies (depth-first; import cycles are reported,
// not looped on).
func (ld *loader) check(path string) error {
	if ld.checked[path] {
		return nil
	}
	for _, on := range ld.stack {
		if on == path {
			return fmt.Errorf("lint: import cycle through %s", path)
		}
	}
	pkg := ld.pkgs[path]
	if pkg == nil {
		return fmt.Errorf("lint: unknown module package %s", path)
	}
	ld.stack = append(ld.stack, path)
	defer func() { ld.stack = ld.stack[:len(ld.stack)-1] }()
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if ip == ld.modpath || strings.HasPrefix(ip, ld.modpath+"/") {
				if err := ld.check(ip); err != nil {
					return err
				}
			}
		}
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: ld,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, ld.fset, pkg.Files, info)
	if len(typeErrs) > 0 {
		return fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	ld.checked[path] = true
	return nil
}

// Import implements types.Importer: module-internal paths resolve to the
// loader's own packages, everything else goes to the source importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == ld.modpath || strings.HasPrefix(path, ld.modpath+"/") {
		if err := ld.check(path); err != nil {
			return nil, err
		}
		return ld.pkgs[path].Types, nil
	}
	return ld.std.Import(path)
}
