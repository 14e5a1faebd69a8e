package tapejuke

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the production declarations that nothing in production
// reaches but that stay on purpose, each with its reason. What an entry
// references needs no entry of its own. TestProductionCodeReachable fails
// on an entry that production reaches anyway or that no longer exists.
var reachAllow = map[string]string{
	"tapejuke/internal/analytic.BlockSizeKnee":             "Figure 3's block-size knee, a closed form of the paper",
	"tapejuke/internal/core.Theorem2Bound":                 "Theorem 2's bound, a closed form of the paper; it reaches stats.Harmonic",
	"tapejuke/internal/sched.CostModel.EffectiveBandwidth": "the reference that bandwidthBits is pinned against; it reaches ExecTime, which core's Theorem 2 test also uses",
	"tapejuke/internal/layout.NewManual":                   "builds hand-placed layouts for tests in other packages",
	"tapejuke/internal/layout.Layout.Validate":             "the layout invariant check that tests in other packages run",
	"tapejuke/internal/sched.NewState":                     "builds scheduler states for tests in other packages",
	"tapejuke/internal/repair.Planner.ReservedCount":       "counts reserved free positions for tests in other packages",
	"tapejuke/internal/workload.NewGenerator":              "perfbench builds its uniform block source with it",
	"tapejuke/internal/workload.NewZipfGenerator":          "perfbench builds its Zipf block source with it",
}

// TestProductionCodeReachable holds the module to the lean aim: every
// package-level function, method, type, constant and variable outside the
// test files is reached from a command's main, an init, or the public API
// of tapejuke and tapejuke/figures, or is on reachAllow with a reason.
func TestProductionCodeReachable(t *testing.T) {
	for key, why := range reachAllow {
		if strings.TrimSpace(why) == "" {
			t.Errorf("reachAllow[%q] gives no reason", key)
		}
	}
	unreached, stale, err := checkReach(".", []string{"tapejuke", "tapejuke/figures"}, reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range unreached {
		t.Errorf("%s:%d: %s has no production caller: delete it, move it into a test file, or add it to reachAllow with a reason", d.file, d.line, d.key)
	}
	for _, s := range stale {
		t.Errorf("reachAllow: %s", s)
	}
}

// TestReachFixture runs the checker on testdata/reach, a small module with
// planted dead code: an exported function of an internal package, a type
// with its constants and String method that nothing uses, and a helper
// only the dead function calls. A method reached only through an interface
// call and the main and init roots must not be reported.
func TestReachFixture(t *testing.T) {
	unreached, _, err := checkReach("testdata/reach", []string{"reachfix"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"reachfix/internal/calc.Triple",
		"reachfix/internal/calc.color",
		"reachfix/internal/calc.color.String",
		"reachfix/internal/calc.green",
		"reachfix/internal/calc.helper",
		"reachfix/internal/calc.red",
	}
	if got := reachKeys(unreached); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unreached = %v, want %v", got, want)
	}

	// Allowing the dead function clears what only it reaches; an entry
	// that production reaches anyway, and one that names nothing, are
	// stale.
	allow := map[string]string{
		"reachfix/internal/calc.Triple": "kept",
		"reachfix/internal/calc.Double": "reached by Run",
		"reachfix/internal/calc.Gone":   "deleted",
	}
	unreached, stale, err := checkReach("testdata/reach", []string{"reachfix"}, allow)
	if err != nil {
		t.Fatal(err)
	}
	want = []string{
		"reachfix/internal/calc.color",
		"reachfix/internal/calc.color.String",
		"reachfix/internal/calc.green",
		"reachfix/internal/calc.red",
	}
	if got := reachKeys(unreached); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("with allowlist: unreached = %v, want %v", got, want)
	}
	wantStale := []string{
		"reachfix/internal/calc.Double is reached anyway (reason given: reached by Run)",
		"reachfix/internal/calc.Gone names no declaration (reason given: deleted)",
	}
	if strings.Join(stale, "\n") != strings.Join(wantStale, "\n") {
		t.Errorf("stale = %q, want %q", stale, wantStale)
	}
}

func reachKeys(ds []reachDecl) []string {
	keys := make([]string, len(ds))
	for i, d := range ds {
		keys[i] = d.key
	}
	sort.Strings(keys)
	return keys
}

// reachDecl is one package-level declaration: its key (import path, then
// the receiver type for a method, then the name), where it is, the module
// declarations it references, and the interface methods it calls.
type reachDecl struct {
	key   string
	file  string
	line  int
	refs  []types.Object
	calls []*types.Func
}

// checkReach type-checks the non-test files of every package of the module
// rooted at dir and returns the declarations that no root reaches, in file
// order, and the allowlist entries that are stale. The roots are each
// command's main, every init, the exported names of the public packages
// and the exported methods of the types they export (aliases included),
// and the allowlist. A reached declaration reaches every declaration it
// references (a generic's instances map to it), its type's String and
// Error methods if it is a type, and, if it is a type, the methods that
// implement an interface method some reached code calls. Blank
// declarations, such as interface assertions, are neither roots nor
// reported. Directories named testdata, dot and underscore directories,
// and nested modules are skipped.
func checkReach(dir string, public []string, allow map[string]string) (unreached []reachDecl, stale []string, err error) {
	g, err := loadReach(dir)
	if err != nil {
		return nil, nil, err
	}
	var roots []types.Object
	for obj := range g.decls {
		if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() == nil &&
			(f.Name() == "init" || f.Name() == "main" && f.Pkg().Name() == "main") {
			roots = append(roots, obj)
		}
	}
	for _, path := range public {
		p := g.pkgs[path]
		if p == nil {
			return nil, nil, fmt.Errorf("reach: no public package %s", path)
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			roots = append(roots, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || types.IsInterface(obj.Type()) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(types.Unalias(tn.Type())))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					roots = append(roots, m.(*types.Func).Origin())
				}
			}
		}
	}

	byKey := make(map[string]types.Object, len(g.decls))
	for obj, d := range g.decls {
		byKey[d.key] = obj
	}
	var allowed []types.Object
	keys := make([]string, 0, len(allow))
	for key := range allow {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		obj, ok := byKey[key]
		if !ok {
			stale = append(stale, fmt.Sprintf("%s names no declaration (reason given: %s)", key, allow[key]))
			continue
		}
		allowed = append(allowed, obj)
	}
	// An entry is stale when the other roots reach it without it.
	for i, obj := range allowed {
		others := append(append([]types.Object(nil), roots...), allowed[:i]...)
		others = append(others, allowed[i+1:]...)
		if key := g.decls[obj].key; g.reach(others)[obj] {
			stale = append(stale, fmt.Sprintf("%s is reached anyway (reason given: %s)", key, allow[key]))
		}
	}
	sort.Strings(stale)

	reached := g.reach(append(roots, allowed...))
	for obj, d := range g.decls {
		if !reached[obj] {
			unreached = append(unreached, *d)
		}
	}
	sort.Slice(unreached, func(i, j int) bool {
		a, b := unreached[i], unreached[j]
		return a.file < b.file || a.file == b.file && a.line < b.line
	})
	return unreached, stale, nil
}

// reachGraph is a module's production declarations and what each
// references. It type-checks the module's packages from their parsed
// files and hands every other import to the standard library's source
// importer.
type reachGraph struct {
	mod   string
	fset  *token.FileSet
	files map[string][]*ast.File // import path -> non-test files
	info  *types.Info
	std   types.Importer
	pkgs  map[string]*types.Package
	decls map[types.Object]*reachDecl
	// impl caches which method of a type implements an interface method
	// (nil when none does), across the reach calls of one check.
	impl map[[2]types.Object]types.Object
}

// reach returns the declarations that roots reach.
func (g *reachGraph) reach(roots []types.Object) map[types.Object]bool {
	seen := make(map[types.Object]bool)
	called := make(map[*types.Func]bool)
	var named []*types.TypeName
	var work []types.Object
	push := func(obj types.Object) {
		if obj != nil && g.decls[obj] != nil && !seen[obj] {
			seen[obj] = true
			work = append(work, obj)
		}
	}
	for _, obj := range roots {
		push(obj)
	}
	for len(work) > 0 {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			d := g.decls[obj]
			for _, ref := range d.refs {
				push(ref)
			}
			for _, f := range d.calls {
				called[f] = true
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named = append(named, tn)
				for _, name := range []string{"String", "Error"} {
					push(methodOf(tn, nil, name))
				}
			}
		}
		for _, tn := range named {
			for f := range called {
				push(g.implements(tn, f))
			}
		}
	}
	return seen
}

// methodOf returns the method name of type tn, declared or promoted, or nil.
func methodOf(tn *types.TypeName, pkg *types.Package, name string) types.Object {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, pkg, name)
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return nil
}

// implements returns the method of type tn that an interface call of f
// dispatches to, or nil when tn does not implement f's interface.
func (g *reachGraph) implements(tn *types.TypeName, f *types.Func) types.Object {
	k := [2]types.Object{tn, f}
	if m, ok := g.impl[k]; ok {
		return m
	}
	var m types.Object
	iface, _ := f.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if t := tn.Type(); iface != nil && !types.IsInterface(t) &&
		(types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)) {
		m = methodOf(tn, f.Pkg(), f.Name())
	}
	g.impl[k] = m
	return m
}

// loadReach parses and type-checks the non-test files of the module rooted
// at dir, the standard library from source, and builds its graph.
func loadReach(dir string) (*reachGraph, error) {
	mod, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files := make(map[string][]*ast.File)
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path == dir {
				return nil
			}
			if name := e.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		imp := mod
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		files[imp] = append(files[imp], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	g := &reachGraph{
		mod:   mod,
		fset:  fset,
		files: files,
		info: &types.Info{
			Defs: make(map[*ast.Ident]types.Object),
			Uses: make(map[*ast.Ident]types.Object),
		},
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  make(map[string]*types.Package),
		decls: make(map[types.Object]*reachDecl),
		impl:  make(map[[2]types.Object]types.Object),
	}
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := g.Import(path); err != nil {
			return nil, err
		}
	}
	for _, path := range paths {
		for _, f := range files[path] {
			g.addFile(dir, f)
		}
	}
	return g, nil
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New(gomod + ": no module line")
}

// Import makes the graph the importer of the packages it type-checks.
func (g *reachGraph) Import(path string) (*types.Package, error) {
	if path != g.mod && !strings.HasPrefix(path, g.mod+"/") {
		return g.std.Import(path)
	}
	if p := g.pkgs[path]; p != nil {
		return p, nil
	}
	files := g.files[path]
	if len(files) == 0 {
		return nil, fmt.Errorf("reach: no files for package %s", path)
	}
	conf := types.Config{Importer: g}
	p, err := conf.Check(path, g.fset, files, g.info)
	if err != nil {
		return nil, err
	}
	g.pkgs[path] = p
	return p, nil
}

// addFile adds the declarations of one file to the graph.
func (g *reachGraph) addFile(dir string, f *ast.File) {
	info := g.info
	add := func(id *ast.Ident, nodes ...ast.Node) {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		pos := g.fset.Position(id.Pos())
		if rel, err := filepath.Rel(dir, pos.Filename); err == nil {
			pos.Filename = filepath.ToSlash(rel)
		}
		d := &reachDecl{key: declKey(obj), file: pos.Filename, line: pos.Line}
		for _, n := range nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if f := ifaceMethod(info.Uses[id]); f != nil {
					d.calls = append(d.calls, f)
				} else if ref := g.declOf(info.Uses[id]); ref != nil {
					d.refs = append(d.refs, ref)
				}
				return true
			})
		}
		// A constant or variable reaches its type even when its spec
		// repeats the type implicitly.
		if _, ok := obj.(*types.TypeName); !ok {
			if n, ok := types.Unalias(obj.Type()).(*types.Named); ok {
				if ref := g.declOf(n.Obj()); ref != nil {
					d.refs = append(d.refs, ref)
				}
			}
		}
		g.decls[obj] = d
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			add(decl.Name, decl)
		case *ast.GenDecl:
			var implicit []ast.Node // a constant spec without values repeats the last values
			for _, spec := range decl.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, s)
				case *ast.ValueSpec:
					nodes := []ast.Node{s}
					if decl.Tok == token.CONST {
						if len(s.Values) > 0 {
							implicit = nil
							if s.Type != nil {
								implicit = append(implicit, s.Type)
							}
							for _, v := range s.Values {
								implicit = append(implicit, v)
							}
						} else {
							nodes = append(nodes, implicit...)
						}
					}
					for _, name := range s.Names {
						add(name, nodes...)
					}
				}
			}
		}
	}
}

// ifaceMethod returns obj as an interface method, or nil.
func ifaceMethod(obj types.Object) *types.Func {
	f, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return f.Origin()
	}
	return nil
}

// declOf returns the module's package-level declaration obj denotes (the
// origin of an instance), or nil for a field, a local, or an object
// outside the module.
func (g *reachGraph) declOf(obj types.Object) types.Object {
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	if p := obj.Pkg().Path(); p != g.mod && !strings.HasPrefix(p, g.mod+"/") {
		return nil
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if o.Type().(*types.Signature).Recv() != nil || o.Parent() == o.Pkg().Scope() {
			return o
		}
	case *types.Var:
		if o = o.Origin(); !o.IsField() && o.Parent() == o.Pkg().Scope() {
			return o
		}
	case *types.Const, *types.TypeName:
		if o.Parent() == o.Pkg().Scope() {
			return o
		}
	}
	return nil
}

// declKey names obj by its import path, then its receiver type for a
// method, then its name.
func declKey(obj types.Object) string {
	key := obj.Pkg().Path() + "."
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := types.Unalias(t).(*types.Named); ok {
				key += n.Obj().Name() + "."
			}
		}
	}
	return key + obj.Name()
}
