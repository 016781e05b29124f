package headtalk

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyPackages lists the packages under internal/ that only tests
// import, so none of their exported functions needs a program caller.
// The guard fails if a program imports one of them.
var testOnlyPackages = map[string]string{
	"headtalk/internal/faultinject": "chaos-test scaffolding: serve's and cluster's chaos tests install its hooks and fake peers",
}

// unreferencedAllowed lists the other exported functions under
// internal/ that no program reaches and that stay anyway, each with its
// reason. Keyed "pkg.Func" or "pkg.Type.Method".
var unreferencedAllowed = map[string]string{
	"serve.Engine.TripBreaker": "test control: pool, headtalkd and facade tests open a tenant's breaker with it",
}

// TestNoUnreferencedInternalFuncs fails on any exported function or
// method under internal/ that no program reaches. It type-checks every
// package of the module and of the benchmark module under perfbench/
// (which imports internal/) from their non-test files, with the host's
// build constraints. A function is reached when an identifier outside
// its own declaration resolves to it. A method is also reached when its
// receiver implements an interface that declares it and that program
// code names, or that is a parameter, result or field type of something
// program code names; and when it implements error, fmt.Stringer or the
// JSON codec interfaces, which the standard library calls dynamically.
func TestNoUnreferencedInternalFuncs(t *testing.T) {
	l := newModuleLoader()
	for root, prefix := range map[string]string{".": "headtalk", "perfbench": "headtalk/perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || (root == "." && path == "perfbench")) {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel(root, path)
			ip := prefix
			if rel != "." {
				ip += "/" + filepath.ToSlash(rel)
			}
			if _, err := l.load(ip); err != nil {
				if _, ok := err.(*build.NoGoError); ok {
					return nil
				}
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Candidates: every exported function and method declared under
	// internal/, outside the test-only packages.
	type decl struct {
		key        string
		start, end token.Pos
	}
	decls := map[*types.Func]decl{}
	for ip, p := range l.pkgs {
		if _, ok := testOnlyPackages[ip]; ok || !strings.HasPrefix(ip, "headtalk/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, dl := range f.Decls {
				fn, ok := dl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				obj := p.info.Defs[fn.Name].(*types.Func)
				key := p.types.Name() + "." + fn.Name.Name
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					key = p.types.Name() + "." + receiverNamed(recv.Type()).Obj().Name() + "." + fn.Name.Name
				}
				decls[obj] = decl{key, fn.Pos(), fn.End()}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no exported functions under internal/")
	}

	live := map[*types.Func]bool{}
	ifaces := map[*types.Interface]bool{}
	for ip, p := range l.pkgs {
		for imp := range testOnlyPackages {
			for _, q := range p.types.Imports() {
				if q.Path() == imp {
					t.Errorf("%s imports %s, which testOnlyPackages says only tests import", ip, imp)
				}
			}
		}
		if _, ok := testOnlyPackages[ip]; ok {
			continue
		}
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				if d, ok := decls[fn]; ok && (id.Pos() < d.start || id.Pos() >= d.end) {
					live[fn] = true
				}
			}
			collectInterfaces(obj, ifaces)
		}
		for _, tv := range p.info.Types {
			if tv.IsType() {
				addInterface(tv.Type, ifaces)
			}
		}
	}
	for _, name := range []string{"fmt.Stringer", "encoding/json.Marshaler", "encoding/json.Unmarshaler"} {
		i := strings.LastIndex(name, ".")
		p, err := l.std.Import(name[:i])
		if err != nil {
			t.Fatal(err)
		}
		addInterface(p.Scope().Lookup(name[i+1:]).Type(), ifaces)
	}
	addInterface(types.Universe.Lookup("error").Type(), ifaces)

	var dead []string
	seen := map[string]bool{}
	for fn, d := range decls {
		seen[d.key] = true
		reached := live[fn] || reachedThroughInterface(fn, ifaces)
		_, allowed := unreferencedAllowed[d.key]
		switch {
		case !reached && !allowed:
			dead = append(dead, d.key)
		case reached && allowed:
			t.Errorf("%s is reached by a program now; drop it from unreferencedAllowed", d.key)
		}
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s is exported but no program reaches it: delete it", k)
	}
	for k := range unreferencedAllowed {
		if !seen[k] {
			t.Errorf("unreferencedAllowed names %s, which no longer exists", k)
		}
	}
	for ip := range testOnlyPackages {
		if l.pkgs[ip] == nil {
			t.Errorf("testOnlyPackages names %s, which no longer exists", ip)
		}
	}
}

// reachedThroughInterface reports whether fn is a method that one of
// ifaces declares and that fn's receiver implements.
func reachedThroughInterface(fn *types.Func, ifaces map[*types.Interface]bool) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := receiverNamed(recv.Type())
	if named.TypeParams().Len() > 0 {
		return false
	}
	for iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
	}
	return false
}

// collectInterfaces adds the interface types obj's type mentions: its
// own type, a variable's or field's type, and a function's parameter
// and result types.
func collectInterfaces(obj types.Object, ifaces map[*types.Interface]bool) {
	switch o := obj.(type) {
	case *types.TypeName, *types.Var:
		addInterface(o.Type(), ifaces)
	case *types.Func:
		sig := o.Type().(*types.Signature)
		for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tup.Len(); i++ {
				addInterface(tup.At(i).Type(), ifaces)
			}
		}
	}
}

// addInterface adds t to ifaces if t is, or holds as an element, an
// interface with methods.
func addInterface(t types.Type, ifaces map[*types.Interface]bool) {
	for {
		switch u := t.Underlying().(type) {
		case *types.Interface:
			if u.NumMethods() > 0 && u.IsMethodSet() {
				ifaces[u] = true
			}
			return
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			return
		}
	}
}

// receiverNamed returns the named type of a method receiver.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// loadedPackage is one type-checked package of the module.
type loadedPackage struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// moduleLoader type-checks the packages under headtalk/ from their
// directories in this tree, and the standard library from source.
type moduleLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loadedPackage
}

func newModuleLoader() *moduleLoader {
	fset := token.NewFileSet()
	return &moduleLoader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*loadedPackage{}}
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path != "headtalk" && !strings.HasPrefix(path, "headtalk/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load parses and type-checks the non-test files of the package at
// import path ip once, with the host's build constraints.
func (l *moduleLoader) load(ip string) (*loadedPackage, error) {
	if p, ok := l.pkgs[ip]; ok {
		return p, nil
	}
	dir := "."
	if ip != "headtalk" {
		dir = strings.TrimPrefix(ip, "headtalk/")
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &loadedPackage{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(ip, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[ip] = p
	return p, nil
}
