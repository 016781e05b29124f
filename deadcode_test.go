package headtalk

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreferencedAllowed lists the exported functions under internal/ that
// no program calls and that stay anyway, each with its reason. Keyed
// "pkg.Func" or "pkg.Type.Method".
var unreferencedAllowed = map[string]string{
	"faultinject.Injector.Hook": "chaos-test scaffolding: serve's chaos tests install it as the engine's fault hook",
	"faultinject.NewBlackHole":  "chaos-test scaffolding: cluster's chaos tests use it as a peer that never answers",
	"faultinject.NewDrip":       "chaos-test scaffolding: cluster's chaos tests use it as a peer that answers too slowly",
	"serve.Engine.TripBreaker":  "test control: pool, headtalkd and facade tests open a tenant's breaker with it",
}

// TestNoUnreferencedInternalFuncs fails on any exported top-level
// function or method under internal/ whose name appears as no
// identifier in non-test code outside its own declaration. The
// benchmark module under perfbench/ imports internal/, so its files
// count as callers too. Matching is by name alone, so it can miss dead
// code whose name a live identifier shares, but it never flags code
// that something calls.
func TestNoUnreferencedInternalFuncs(t *testing.T) {
	type decl struct {
		key, name  string
		start, end token.Pos
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") {
			return nil
		}
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				key = f.Name.Name + "." + recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fn.Name.Name, fn.Pos(), fn.End()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported functions under internal/")
	}

	// uses[name] holds the position of every identifier with that name.
	uses := map[string][]token.Pos{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
	}

	var dead []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		referenced := false
		for _, p := range uses[d.name] {
			if p < d.start || p >= d.end {
				referenced = true
				break
			}
		}
		_, allowed := unreferencedAllowed[d.key]
		switch {
		case !referenced && !allowed:
			dead = append(dead, d.key)
		case referenced && allowed:
			t.Errorf("%s is referenced outside tests now; drop it from unreferencedAllowed", d.key)
		}
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s is exported but nothing outside _test.go files references it: delete it, or move it into a test file", k)
	}
	for k := range unreferencedAllowed {
		if !seen[k] {
			t.Errorf("unreferencedAllowed names %s, which no longer exists", k)
		}
	}
}

// recvTypeName returns the bare type name of a method receiver.
func recvTypeName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
