// writeonly reports struct fields under internal/ that no non-test code of
// the module reads: the second phase of scripts/deadcode.sh.
//
// Every package of the module is type-checked from the non-test files
// go/build picks for the host. Standard-library imports come from the
// compiler's export data. A field counts as read when some selector names
// it outside a write position. These only write it: `x.f = v`,
// `x.f op= v`, `x.f++`, `x.f--` and the keys of a composite literal. In
// `x.f.g = v` only g is written; f is read. Tagged fields count as read,
// because reflection (encoding/json and the like) reads them. Embedded
// fields count as read, because promotion reads them implicitly. Fields of
// a generic type are keyed by their origin, so a read through any
// instantiation counts. Fields of anonymous structs outside a type
// declaration are not checked.
//
// Names are `<package path under internal/>.<Type>.<Field>`, e.g.
// `sched.AdaServeDebug.DecodeIters`. A write-only field that stays on
// purpose is listed in the allow file as `field <name> <reason>`. An allow
// entry that names no write-only field is stale and fails the check.
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

// run checks the module and reports to stdout and stderr. It returns the
// exit status: 0 clean, 1 write-only fields or stale allow entries, 2 the
// check could not run.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("writeonly", flag.ContinueOnError)
	flags.SetOutput(stderr)
	allowPath := flags.String("allow", "", "allow file: lines `field <name> <reason>` name write-only fields that stay")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	root := "."
	if flags.NArg() > 0 {
		root = flags.Arg(0)
	}
	found, declared, err := writeOnly(root)
	if err != nil {
		fmt.Fprintln(stderr, "writeonly:", err)
		return 2
	}
	allowed := map[string]bool{}
	if *allowPath != "" {
		if allowed, err = readAllow(*allowPath); err != nil {
			fmt.Fprintln(stderr, "writeonly:", err)
			return 2
		}
	}
	dead, stale := compare(found, allowed)
	status := 0
	if len(dead) > 0 {
		fmt.Fprintln(stderr, "writeonly: fields under internal/ that no non-test code reads:")
		for _, name := range dead {
			fmt.Fprintln(stderr, "  "+name)
		}
		fmt.Fprintf(stderr, "delete them, or list them in %s as `field <name> <reason>`\n", *allowPath)
		status = 1
	}
	if len(stale) > 0 {
		fmt.Fprintf(stderr, "writeonly: %s names fields that are not write-only:\n", *allowPath)
		for _, name := range stale {
			fmt.Fprintln(stderr, "  "+name)
		}
		status = 1
	}
	if status == 0 {
		fmt.Fprintf(stdout, "writeonly: %d fields under internal/, none write-only outside %s\n", declared, *allowPath)
	}
	return status
}

// readAllow returns the field names an allow file lists. Lines whose first
// word is not `field` belong to the function phase and are skipped.
func readAllow(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allowed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		words := strings.Fields(sc.Text())
		if len(words) >= 2 && words[0] == "field" {
			allowed[words[1]] = true
		}
	}
	return allowed, sc.Err()
}

// compare splits the write-only fields into those the allow list misses
// (dead) and the allow entries that name no write-only field (stale).
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

// writeOnly type-checks the module rooted at root and returns the sorted
// names of the write-only fields under internal/, plus how many fields
// under internal/ it checked.
func writeOnly(root string) (found []string, declared int, err error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, 0, err
	}
	if err := l.loadAll(); err != nil {
		return nil, 0, err
	}
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
	return found, len(fields), nil
}

// collectFields names every untagged, non-embedded field of the struct
// types p declares, including fields of structs nested in them.
func collectFields(rel string, p *pkg, fields map[*types.Var]string) {
	var walk func(prefix string, st *ast.StructType)
	walk = func(prefix string, st *ast.StructType) {
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				if inner, ok := f.Type.(*ast.StructType); ok {
					walk(prefix+"."+id.Name, inner)
				}
				if f.Tag != nil || id.Name == "_" {
					continue
				}
				fields[p.info.Defs[id].(*types.Var)] = prefix + "." + id.Name
			}
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := ts.Type.(*ast.StructType); ok {
					walk(rel+"."+ts.Name.Name, st)
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
				for _, lhs := range s.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						writes[sel] = true
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := ast.Unparen(s.X).(*ast.SelectorExpr); ok {
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
