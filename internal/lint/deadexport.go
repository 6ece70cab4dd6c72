package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// DeadExport keeps the internal packages' surface to what the module
// reaches: a package-level exported const, var, func or type declared
// under internal/ must be used by some non-test file of the module (its
// own package included) or be named in some _test.go file. Anything else
// is surface no figure, command or test can observe, and it accumulates
// silently because the compiler never complains about an unused export.
// Methods are out of scope: interface satisfaction (Unwrap, MarshalJSON,
// ...) makes "no caller" the normal case for them.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "exported package-level identifiers under internal/ need a non-test use or a test naming them",
	Run:  runDeadExport,
}

// usage is the module-wide reference index deadexport reads, built once
// per Run.
type usage struct {
	used      map[types.Object]bool // objects some non-test file refers to
	testNames map[string]bool       // every identifier spelled in a _test.go file
}

// buildUsage indexes the uses recorded by the type checker across pkgs
// and the identifiers of every _test.go file under root. Test files are
// only parsed: they may reference test-only helpers of other test files,
// so a name match is the conservative notion of "a test uses it".
func buildUsage(fset *token.FileSet, root string, pkgs []*Package) (*usage, error) {
	u := &usage{used: make(map[types.Object]bool), testNames: make(map[string]bool)}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			u.used[obj] = true
		}
	}
	err := walkPackageDirs(root, func(dir string) error {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					u.testNames[id.Name] = true
				}
				return true
			})
		}
		return nil
	})
	return u, err
}

func runDeadExport(p *Pass) {
	if !strings.Contains(p.Pkg.ImportPath+"/", "/internal/") {
		return
	}
	check := func(id *ast.Ident, kind string) {
		if !id.IsExported() || p.use.used[p.Pkg.Info.Defs[id]] || p.use.testNames[id.Name] {
			return
		}
		p.Reportf(id.Pos(), "exported %s %s is used by no non-test file of the module and named in no test; delete or unexport it", kind, id.Name)
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					check(d.Name, "func")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name, "type")
					case *ast.ValueSpec:
						for _, id := range s.Names {
							check(id, d.Tok.String())
						}
					}
				}
			}
		}
	}
}
