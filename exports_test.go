package repro_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported internal/ identifiers that no non-test
// file reads and that stay anyway, each with its reason.
var exportAllowlist = map[string]string{}

// TestExportsHaveProductionReaders: every exported func, type, const, var
// and method of an internal/ package is read by some non-test file of the
// module or of bench/ (its own package counts). The non-test files are
// type-checked with go/types, so a name is matched by the object it
// denotes, never by its spelling. A method also counts as read when it
// implements an interface method that is called, either in the module or
// by the standard library on a value handed to it (error, fmt.Stringer,
// encoding/json's and encoding's marshalers, http.Handler, sort.Interface,
// flag.Value). A type counts as read when a method or field of it is. A use
// inside the body of what it names (recursion), or of an interface method
// inside a same-named method implementing it (a wrapper delegating), reads
// nothing: it only runs when the name is already read.
func TestExportsHaveProductionReaders(t *testing.T) {
	l := &exportLoader{
		fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	dirs := []string{"."}
	for _, glob := range []string{"internal/*", "cmd/*"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, m...)
	}
	for _, dir := range append(dirs, "bench") {
		if _, err := l.load(importPath(dir), dir); err != nil {
			t.Fatal(err)
		}
	}

	sort.Slice(l.funcs, func(i, j int) bool { return l.funcs[i].pos < l.funcs[j].pos })
	read := map[types.Object]bool{}
	var called []*types.Func // interface methods called in non-test code
	for id, obj := range l.info.Uses {
		obj = origin(obj)
		if fn := l.enclosing(id.Pos()); fn != nil && readsItself(fn, obj) {
			continue
		}
		read[obj] = true
		if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
			called = append(called, fn)
		}
	}
	for _, sel := range l.info.Selections {
		for _, owner := range ownersOf(sel) {
			read[owner] = true
		}
	}
	called = append(called, stdCalledMethods(l.pkgs)...)

	var unread []string
	for _, dir := range dirs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		pkg := l.pkgs[importPath(dir)]
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() && !read[obj] {
				unread = append(unread, qualified(obj, ""))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); m.Exported() && !read[m] {
						unread = append(unread, qualified(m, tn.Name()))
					}
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !read[m] && !implementsCalled(named, m, called) {
					unread = append(unread, qualified(m, tn.Name()))
				}
			}
		}
	}
	sort.Strings(unread)
	allowed := 0
	for _, name := range unread {
		if _, ok := exportAllowlist[name]; ok {
			allowed++
			continue
		}
		t.Errorf("%s: exported, and no non-test file reads it", name)
	}
	if allowed != len(exportAllowlist) {
		t.Errorf("the allowlist holds %d names, %d of them unread: drop the ones that have a reader", len(exportAllowlist), allowed)
	}
	if len(read) == 0 || len(l.pkgs) < len(dirs) {
		t.Fatalf("%d objects read in %d packages; the gate reads nothing", len(read), len(l.pkgs))
	}
	if len(exportAllowlist) > 5 {
		t.Errorf("the allowlist holds %d names; at most 5", len(exportAllowlist))
	}
}

// exportLoader type-checks the module's and bench/'s non-test files from
// source, recording every package's uses into one Info and every function
// body's span; the standard library comes from the source importer.
type exportLoader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	pkgs  map[string]*types.Package
	info  *types.Info
	funcs []funcSpan
}

// funcSpan is the body of one function or method declaration.
type funcSpan struct {
	pos, end token.Pos
	fn       *types.Func
}

// enclosing returns the declared function whose body holds pos, or nil;
// l.funcs must be sorted by pos.
func (l *exportLoader) enclosing(pos token.Pos) *types.Func {
	i := sort.Search(len(l.funcs), func(i int) bool { return l.funcs[i].end > pos })
	if i < len(l.funcs) && l.funcs[i].pos <= pos {
		return l.funcs[i].fn
	}
	return nil
}

func importPath(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + filepath.ToSlash(dir)
}

func (l *exportLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

func (l *exportLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "repro" || strings.HasPrefix(path, "repro/") {
		return l.load(path, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/")))
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *exportLoader) load(path, dir string) (*types.Package, error) {
	if dir == "" {
		dir = "."
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l, Error: func(error) {}}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := l.info.Defs[fd.Name].(*types.Func); ok {
				l.funcs = append(l.funcs, funcSpan{fd.Body.Pos(), fd.Body.End(), fn})
			}
		}
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// readsItself reports whether a use of obj inside fn's body proves nothing
// about obj: fn is obj, or obj is an interface method that fn, a method of
// the same name, implements.
func readsItself(fn *types.Func, obj types.Object) bool {
	if fn == obj {
		return true
	}
	m, ok := obj.(*types.Func)
	recv := fn.Type().(*types.Signature).Recv()
	if !ok || recv == nil || m.Name() != fn.Name() || !isInterfaceMethod(m) {
		return false
	}
	return types.Implements(recv.Type(), m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface))
}

func isInterfaceMethod(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	return sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// ownersOf returns the named types a selection reads a field or method of,
// the embedding path included.
func ownersOf(sel *types.Selection) []types.Object {
	var owners []types.Object
	add := func(t types.Type) {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			owners = append(owners, n.Origin().Obj())
		}
	}
	add(sel.Recv())
	t := sel.Recv()
	for _, i := range sel.Index()[:len(sel.Index())-1] {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			break
		}
		t = st.Field(i).Type()
		add(t)
	}
	return owners
}

// stdCalledMethods returns the methods of the standard-library interfaces
// whose methods the standard library calls on a value it is given.
func stdCalledMethods(pkgs map[string]*types.Package) []*types.Func {
	var out []*types.Func
	add := func(iface types.Type) {
		it := iface.Underlying().(*types.Interface)
		for i := 0; i < it.NumMethods(); i++ {
			out = append(out, it.Method(i))
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Imports() {
			if seen[imp.Path()] {
				continue
			}
			seen[imp.Path()] = true
			var names []string
			switch imp.Path() {
			case "fmt":
				names = []string{"Stringer", "GoStringer", "Formatter"}
			case "encoding/json":
				names = []string{"Marshaler", "Unmarshaler"}
			case "encoding":
				names = []string{"TextMarshaler", "TextUnmarshaler"}
			case "net/http":
				names = []string{"Handler"}
			case "sort":
				names = []string{"Interface"}
			case "flag":
				names = []string{"Value"}
			}
			for _, n := range names {
				add(imp.Scope().Lookup(n).Type())
			}
		}
	}
	return out
}

// implementsCalled reports whether m, a method of named, implements a
// called interface method: the interface's method has m's name and named
// (or a pointer to it) implements the interface.
func implementsCalled(named *types.Named, m *types.Func, called []*types.Func) bool {
	for _, c := range called {
		if c.Name() != m.Name() {
			continue
		}
		iface := c.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// qualified names obj as pkg.Name or pkg.Type.Method.
func qualified(obj types.Object, recv string) string {
	name := obj.Pkg().Name() + "."
	if recv != "" {
		name += recv + "."
	}
	return name + obj.Name()
}
