package main

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// packageLocal returns the sorted names of the exported identifiers under
// internal/ that no other package's non-test code uses and no exemption
// keeps (see the package comment), plus how many exported identifiers
// under internal/ it checked.
func packageLocal(l *loader) (found []string, declared int) {
	names := map[types.Object]string{}
	internal := l.module + "/internal/"
	for _, p := range l.order {
		if strings.HasPrefix(p.path, internal) {
			collectExports(strings.TrimPrefix(p.path, internal), p, names)
		}
	}
	kept := map[types.Object]bool{}
	var reach func(t types.Type)
	reach = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			obj := t.Origin().Obj()
			if kept[obj] {
				return
			}
			kept[obj] = true
			for i := 0; i < t.TypeArgs().Len(); i++ {
				reach(t.TypeArgs().At(i))
			}
			// A struct's fields and an interface's methods stay exported
			// only when used; other underlying types carry their element
			// types along.
			switch t.Underlying().(type) {
			case *types.Struct, *types.Interface:
			default:
				reach(t.Underlying())
			}
		case *types.Pointer:
			reach(t.Elem())
		case *types.Slice:
			reach(t.Elem())
		case *types.Array:
			reach(t.Elem())
		case *types.Chan:
			reach(t.Elem())
		case *types.Map:
			reach(t.Key())
			reach(t.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					reach(tuple.At(i).Type())
				}
			}
		}
	}
	use := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		kept[obj] = true
		reach(obj.Type())
	}
	for _, p := range l.order {
		for _, obj := range p.info.Uses {
			if obj.Pkg() != nil && obj.Pkg() != p.types && strings.HasPrefix(obj.Pkg().Path(), internal) {
				use(obj)
			}
		}
		// A promoted field or method selected by another package reads the
		// embedded fields on its path, so their types are reachable.
		for _, sel := range p.info.Selections {
			if sel.Obj().Pkg() == p.types || len(sel.Index()) < 2 {
				continue
			}
			t := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem()
				}
				f := t.Underlying().(*types.Struct).Field(i)
				reach(f.Type())
				t = f.Type()
			}
		}
	}
	for _, m := range interfaceMethods(l) {
		kept[m] = true
	}
	for obj, name := range names {
		if !kept[obj] {
			found = append(found, name)
		}
	}
	sort.Strings(found)
	return found, len(names)
}

// collectExports names the exported identifiers p declares at package
// level: consts, vars, funcs, types, methods, interface methods and the
// untagged, non-embedded fields of its struct types.
func collectExports(rel string, p *pkg, names map[types.Object]string) {
	scope := p.types.Scope()
	for _, n := range scope.Names() {
		obj := scope.Lookup(n)
		if !obj.Exported() {
			continue
		}
		names[obj] = rel + "." + n
		if _, ok := obj.(*types.TypeName); !ok {
			continue
		}
		if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumExplicitMethods(); i++ {
				if m := iface.ExplicitMethod(i); m.Exported() {
					names[m] = rel + "." + n + "." + m.Name()
				}
			}
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.IsExported() {
				m := p.info.Defs[fd.Name].(*types.Func)
				recv := m.Type().(*types.Signature).Recv().Type()
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				names[m] = rel + "." + recv.(*types.Named).Obj().Name() + "." + m.Name()
			}
		}
	}
	eachField(rel, p, func(v *types.Var, name string, tagged, top bool) {
		if top && !tagged && v.Exported() {
			names[v] = name
		}
	})
}

// interfaceMethods returns the methods that must keep their exported
// names for an interface: every method that satisfies an interface of the
// module, of a package it imports, or `error`, through the method set of a
// named type of the module or of a pointer to one (promoted methods
// included), and every interface method whose interface a type of another
// package implements.
func interfaceMethods(l *loader) []*types.Func {
	var ifaces []*types.Named
	var named []*types.Named
	seen := map[*types.Package]bool{}
	addScope := func(pkg *types.Package, module bool) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, n := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t, ok := tn.Type().(*types.Named)
			if !ok || t.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := t.Underlying().(*types.Interface); ok {
				if iface.NumMethods() > 0 && iface.IsMethodSet() {
					ifaces = append(ifaces, t)
				}
			} else if module {
				named = append(named, t)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().(*types.Named))
	for _, p := range l.order {
		addScope(p.types, true)
		for _, imp := range p.types.Imports() {
			addScope(imp, false)
		}
	}
	var kept []*types.Func
	for _, t := range named {
		ptr := types.NewPointer(t)
		for _, in := range ifaces {
			iface := in.Underlying().(*types.Interface)
			if !types.Implements(t, iface) && !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					kept = append(kept, obj.(*types.Func).Origin())
				}
				if in.Obj().Pkg() != t.Obj().Pkg() {
					kept = append(kept, m)
				}
			}
		}
	}
	return kept
}
