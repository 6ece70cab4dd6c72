package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadExport keeps the internal packages' surface to what the module
// reaches: an exported package-level const, var, func or type, or an
// exported method, declared under internal/ must be used by some non-test
// file of the module (its own package included). A _test.go file naming
// it is not a use: code that only tests reach belongs in those tests. A
// method also counts as used when its receiver satisfies an interface
// that has the method (Error via error, String via fmt.Stringer,
// MarshalJSON via json.Marshaler, ...), declared in the module or in any
// package it imports. Anything else is surface no figure or command can
// observe, and it accumulates silently because the compiler never
// complains about an unused export. Methods declared inside interface
// types are out of scope.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "exported identifiers and methods under internal/ need a non-test use or an interface they satisfy",
	Run:  runDeadExport,
}

// usage is the module-wide reference index deadexport reads, built once
// per Run.
type usage struct {
	used   map[types.Object]bool         // objects some non-test file refers to
	ifaces map[string][]*types.Interface // interfaces by method name
}

// buildUsage indexes the uses recorded by the type checker across pkgs
// (which hold no test files), every interface type spelled in them
// (anonymous ones like interface{ Validate() error } included), every
// named interface of the packages they import, transitively, and error.
func buildUsage(pkgs []*Package) *usage {
	u := &usage{used: make(map[types.Object]bool), ifaces: make(map[string][]*types.Interface)}
	seen := make(map[*types.Package]bool)
	var index func(*types.Package)
	index = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				u.addIface(named.Underlying())
			}
		}
		for _, imp := range tp.Imports() {
			index(imp)
		}
	}
	u.addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			u.used[obj] = true
		}
		for expr, tv := range pkg.Info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				u.addIface(tv.Type)
			}
		}
		index(pkg.Types)
	}
	return u
}

// addIface indexes t if it is an interface with methods only (a
// constraint's type set has no method to satisfy).
func (u *usage) addIface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || !it.IsMethodSet() {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		u.ifaces[name] = append(u.ifaces[name], it)
	}
}

// satisfies reports whether the receiver of method fn, as a value or a
// pointer, implements an indexed interface that has fn's name.
func (u *usage) satisfies(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range u.ifaces[fn.Name()] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

func runDeadExport(p *Pass) {
	if !strings.Contains(p.Pkg.ImportPath+"/", "/internal/") {
		return
	}
	check := func(id *ast.Ident, kind string) {
		if !id.IsExported() || p.use.used[p.Pkg.Info.Defs[id]] {
			return
		}
		if fn, ok := p.Pkg.Info.Defs[id].(*types.Func); ok && kind == "method" && p.use.satisfies(fn) {
			return
		}
		p.Reportf(id.Pos(), "exported %s %s is used by no non-test file of the module; delete it, unexport it or move it into the test that uses it", kind, id.Name)
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					check(d.Name, "func")
				} else {
					check(d.Name, "method")
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
