// writeonly is phases 2 and 3 of scripts/deadcode.sh. It type-checks every
// package of the module from the non-test files go/build picks for the
// host; standard-library imports come from the compiler's export data.
//
// Phase 2 reports struct fields under internal/ that no non-test code of
// the module reads. A field counts as read when some selector names it
// outside a write position. These only write it: `x.f = v`, `x.f op= v`,
// `x.f++`, `x.f--`, the same forms on an element (`x.f[i] = v`,
// `x.f[i] op= v`, `x.f[i]++`) and the keys of a composite literal. A read
// that only feeds the field back into itself is a write too:
// `x.f = x.f[:n]` and `x.f = append(x.f, …)`. In `x.f.g = v` only g is
// written; f is read. Tagged fields count as read, because reflection
// (encoding/json and the like) reads them. Embedded fields count as read,
// because promotion reads them implicitly. Fields of a generic type are
// keyed by their origin, so a read through any instantiation counts.
// Fields of anonymous structs outside a type declaration are not checked.
//
// Phase 3 reports exported identifiers under internal/ that no other
// package's non-test code uses: consts, vars, funcs, types, methods
// (interface methods included) and untagged, non-embedded fields. A name
// stays exported when another package refers to it, when it is a method
// that satisfies an interface (also when promoted through embedding), or
// when it is a type reachable from the type of something another package
// uses. An interface method also stays exported when a type of another
// package implements its interface.
//
// Names are `<package path under internal/>.<Name>`, with the type in
// between for methods and fields: `sched.AdaServeDebug.DecodeIters`. A name
// that stays on purpose is listed in the allow file as `field <name>
// <reason>` (phase 2) or `export <name> <reason>` (phase 3). Each phase
// reads only its own entries, and an entry that names nothing the phase
// reports is stale and fails the check.
//
// Usage: go run ./scripts/writeonly [-allow FILE] [MODULE_DIR]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// phase is one check: what it reports and the allow-entry kind that
// keeps a name it would report.
type phase struct {
	kind  string // allow-entry keyword
	what  string // the names it checks, for the summary line
	fault string // what a reported name is
	fix   string // what to do about one
	check func(*loader) (found []string, declared int)
}

var phases = []phase{
	{"field", "fields", "fields under internal/ that no non-test code reads",
		"delete them", writeOnly},
	{"export", "exported names", "exported names under internal/ that no other package's non-test code uses",
		"unexport them", packageLocal},
}

// run checks the module and reports to stdout and stderr. It returns the
// exit status: 0 clean, 1 names reported or stale allow entries, 2 the
// check could not run.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("writeonly", flag.ContinueOnError)
	flags.SetOutput(stderr)
	allowPath := flags.String("allow", "", "allow file: lines `field <name> <reason>` and `export <name> <reason>` name what stays")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	root := "."
	if flags.NArg() > 0 {
		root = flags.Arg(0)
	}
	l, err := load(root)
	if err != nil {
		fmt.Fprintln(stderr, "writeonly:", err)
		return 2
	}
	allowed := map[string]map[string]bool{}
	if *allowPath != "" {
		if allowed, err = readAllow(*allowPath); err != nil {
			fmt.Fprintln(stderr, "writeonly:", err)
			return 2
		}
	}
	status := 0
	for _, ph := range phases {
		found, declared := ph.check(l)
		dead, stale := compare(found, allowed[ph.kind])
		if len(dead) > 0 {
			fmt.Fprintf(stderr, "writeonly: %s:\n", ph.fault)
			for _, name := range dead {
				fmt.Fprintln(stderr, "  "+name)
			}
			fmt.Fprintf(stderr, "%s, or list them in %s as `%s <name> <reason>`\n", ph.fix, *allowPath, ph.kind)
			status = 1
		}
		if len(stale) > 0 {
			fmt.Fprintf(stderr, "writeonly: %s has `%s` entries that name nothing it reports:\n", *allowPath, ph.kind)
			for _, name := range stale {
				fmt.Fprintln(stderr, "  "+name)
			}
			status = 1
		}
		if len(dead) == 0 && len(stale) == 0 {
			fmt.Fprintf(stdout, "writeonly: %d %s under internal/, none reported outside %s\n", declared, ph.what, *allowPath)
		}
	}
	return status
}

// readAllow returns the names an allow file lists, by the phase's entry
// kind: the first word of the line. Other lines (comments, phase 1's bare
// function names) are skipped.
func readAllow(path string) (map[string]map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allowed := map[string]map[string]bool{}
	for _, ph := range phases {
		allowed[ph.kind] = map[string]bool{}
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		words := strings.Fields(sc.Text())
		if len(words) >= 2 && allowed[words[0]] != nil {
			allowed[words[0]][words[1]] = true
		}
	}
	return allowed, sc.Err()
}

// compare splits the reported names into those the allow list misses
// (dead) and the allow entries that name nothing reported (stale).
func compare(found []string, allowed map[string]bool) (dead, stale []string) {
	isFound := map[string]bool{}
	for _, name := range found {
		isFound[name] = true
		if !allowed[name] {
			dead = append(dead, name)
		}
	}
	for name := range allowed {
		if !isFound[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	return dead, stale
}

// load type-checks the module rooted at root.
func load(root string) (*loader, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	return l, l.loadAll()
}

// writeOnly returns the sorted names of the write-only fields under
// internal/, plus how many fields under internal/ it checked.
func writeOnly(l *loader) (found []string, declared int) {
	fields := map[*types.Var]string{}
	read := map[*types.Var]bool{}
	internal := l.module + "/internal/"
	for _, p := range l.order {
		if strings.HasPrefix(p.path, internal) {
			collectFields(strings.TrimPrefix(p.path, internal), p, fields)
		}
		markReads(p, read)
	}
	for v, name := range fields {
		if !read[v] {
			found = append(found, name)
		}
	}
	sort.Strings(found)
	return found, len(fields)
}

// collectFields names every untagged, non-embedded field of the struct
// types p declares, including fields of structs nested in them.
func collectFields(rel string, p *pkg, fields map[*types.Var]string) {
	eachField(rel, p, func(v *types.Var, name string, tagged, _ bool) {
		if !tagged {
			fields[v] = name
		}
	})
}

// eachField calls fn with every named field of the struct types p
// declares, including fields of structs nested in them, and whether the
// type is declared at package level.
func eachField(rel string, p *pkg, fn func(v *types.Var, name string, tagged, top bool)) {
	var walk func(prefix string, st *ast.StructType, top bool)
	walk = func(prefix string, st *ast.StructType, top bool) {
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				if inner, ok := f.Type.(*ast.StructType); ok {
					walk(prefix+"."+id.Name, inner, top)
				}
				if id.Name != "_" {
					fn(p.info.Defs[id].(*types.Var), prefix+"."+id.Name, f.Tag != nil, top)
				}
			}
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := ts.Type.(*ast.StructType); ok {
					walk(rel+"."+ts.Name.Name, st, p.info.Defs[ts.Name].Parent() == p.types.Scope())
				}
			}
			return true
		})
	}
}

// markReads records every field a selector in p reads.
func markReads(p *pkg, read map[*types.Var]bool) {
	for _, f := range p.files {
		writes := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					sel := written(lhs)
					if sel == nil {
						continue
					}
					writes[sel] = true
					if s.Tok == token.ASSIGN && len(s.Rhs) == len(s.Lhs) {
						if src := p.fedBack(s.Rhs[i]); src != nil && p.sameField(sel, src) {
							writes[src] = true
						}
					}
				}
			case *ast.IncDecStmt:
				if sel := written(s.X); sel != nil {
					writes[sel] = true
				}
			case *ast.SelectorExpr:
				if sel := p.info.Selections[s]; sel != nil && sel.Kind() == types.FieldVal && !writes[s] {
					read[sel.Obj().(*types.Var).Origin()] = true
				}
			}
			return true
		})
	}
}

// written returns the selector an assignment target writes: x.f in
// `x.f`, `x.f[i]` or `x.f[i][j]`, or nil.
func written(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x
		default:
			return nil
		}
	}
}

// fedBack returns the selector whose value e only reslices or appends to:
// x.f in `x.f[:n]` or `append(x.f, …)`, or nil.
func (p *pkg) fedBack(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.CallExpr:
			id, ok := ast.Unparen(x.Fun).(*ast.Ident)
			if b, isBuiltin := p.info.Uses[id].(*types.Builtin); !ok || !isBuiltin || b.Name() != "append" || len(x.Args) == 0 {
				return nil
			}
			e = x.Args[0]
		case *ast.SelectorExpr:
			return x
		default:
			return nil
		}
	}
}

// sameField reports whether a and b select the same field of the same
// operand, as in `x.f = append(x.f, v)`.
func (p *pkg) sameField(a, b *ast.SelectorExpr) bool {
	sa, sb := p.info.Selections[a], p.info.Selections[b]
	return sa != nil && sb != nil && sa.Kind() == types.FieldVal && sa.Obj() == sb.Obj() &&
		types.ExprString(a.X) == types.ExprString(b.X)
}

// pkg is one type-checked package of the module.
type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the module's packages from source, each once, and
// resolves every other import from export data.
type loader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*pkg
	order        []*pkg
}

func newLoader(root string) (*loader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	if module == "" {
		return nil, fmt.Errorf("%s/go.mod declares no module", root)
	}
	fset := token.NewFileSet()
	return &loader{
		root: root, module: module, fset: fset,
		std:  importer.ForCompiler(fset, "gc", nil),
		pkgs: map[string]*pkg{},
	}, nil
}

// loadAll loads every package directory of the module, skipping testdata,
// hidden and underscore directories and nested modules.
func (l *loader) loadAll() error {
	return filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		if rel != "." {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		importPath := l.module
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		_, err = l.load(importPath)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	})
}

// load type-checks one package of the module (memoized).
func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p.types == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	p := &pkg{path: path}
	l.pkgs[path] = p
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		delete(l.pkgs, path)
		return nil, err
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.order = append(l.order, p)
	return p, nil
}

// Import implements types.Importer: module packages from source, the rest
// from export data.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}
